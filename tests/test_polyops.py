"""Polynomial and operator algebra tests.

The composition oracle (`oracles.compose`) keeps multiplications left of
derivatives; the properties below pin down that normal ordering against
direct application, which is the only semantics the rest of the package
needs.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from e6poly.polyops import (
    apply,
    dualize,
    euler_operator,
    first_order_brackets,
    format_poly,
    leibniz_bracket,
    monomial,
    op_identity,
    padd,
    pdiv_exact,
    pmul,
    poly,
    poly_to_json,
    ppow,
    pscale,
    psub,
    x,
)
from oracles import commutator, compose, multiplication, poly_from_json

_var = st.integers(min_value=1, max_value=6)
_coeff = st.integers(min_value=-4, max_value=4).filter(lambda c: c != 0)


@st.composite
def polys(draw, max_terms=4, max_power=3):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        powers = draw(
            st.dictionaries(_var, st.integers(1, max_power), min_size=0, max_size=3)
        )
        terms.append((monomial(powers), Fraction(draw(_coeff))))
    return poly(terms)


@st.composite
def operators(draw, max_terms=3):
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        mult = draw(st.dictionaries(_var, st.integers(1, 2), max_size=2))
        diff = draw(st.dictionaries(_var, st.integers(1, 2), max_size=2))
        terms.append(((monomial(mult), monomial(diff)), Fraction(draw(_coeff))))
    return poly(terms)


def first_order(terms):
    """Operator sum of c x_i d_j from (c, i, j) triples."""
    return poly((((i,), (j,)), c) for c, i, j in terms)


@settings(max_examples=200)
@given(polys(), polys())
def test_ring_commutative(f, g):
    assert pmul(f, g) == pmul(g, f)
    assert padd(f, g) == padd(g, f)


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_ring_distributive(f, g, h):
    assert pmul(f, padd(g, h)) == padd(pmul(f, g), pmul(f, h))


@settings(max_examples=100)
@given(polys())
def test_sub_self_is_zero(f):
    assert psub(f, f) == {}


@settings(max_examples=100)
@given(polys(), st.integers(0, 3))
def test_power_matches_repeated_product(f, n):
    expected = poly([(monomial({}), 1)])
    for _ in range(n):
        expected = pmul(expected, f)
    assert ppow(f, n) == expected


@settings(max_examples=200, deadline=None)
@given(operators(), operators(), polys())
def test_compose_matches_sequential_application(a, b, f):
    assert apply(compose(a, b), f) == apply(a, apply(b, f))


@settings(max_examples=150, deadline=None)
@given(operators(), operators(), polys())
def test_operator_linearity(a, b, f):
    assert apply(padd(a, b), f) == padd(apply(a, f), apply(b, f))
    assert apply(pscale(5, a), f) == pscale(5, apply(a, f))
    assert apply(psub(a, b), f) == psub(apply(a, f), apply(b, f))


@settings(max_examples=100, deadline=None)
@given(polys())
def test_euler_operator_scales_by_degree(f):
    graded = {}
    for m, c in f.items():
        graded.setdefault(len(m), []).append((m, c))
    out = apply(euler_operator(), f)
    expected = {}
    for d, terms in graded.items():
        for m, c in terms:
            if d:
                expected[m] = Fraction(d) * c
    assert out == expected


@settings(max_examples=100)
@given(_var, _var)
def test_canonical_commutation(i, j):
    # [d/dx_i, x_j] = delta_ij on this variable range
    diff = dualize(x(i))
    mult = multiplication(x(j))
    c = commutator(diff, mult)
    expected = op_identity() if i == j else {}
    assert c == expected


@settings(max_examples=100)
@given(_var, _var)
def test_first_order_acts_as_substitution(i, j):
    # x_i d_j sends x_j^2 to 2 x_i x_j and kills monomials without x_j
    a = first_order([(1, i, j)])
    sq = ppow(x(j), 2)
    assert apply(a, sq) == pscale(2, pmul(x(i), x(j)))
    other = 1 + j % 6
    if other != j:
        assert apply(a, x(other)) == {}


@st.composite
def first_order_ops(draw, max_terms=4):
    terms = draw(st.lists(st.tuples(_coeff, _var, _var), min_size=1,
                          max_size=max_terms))
    return first_order(terms)


@settings(max_examples=200)
@given(first_order_ops(), operators())
def test_ad_first_order_matches_commutator(w, a):
    # the derivation route agrees with generic composition: [w, a] = -[a, w]
    assert first_order_brackets([w], a) == [pscale(-1, commutator(a, w))]


@settings(max_examples=100, deadline=None)
@given(st.lists(first_order_ops(), max_size=5), operators())
def test_one_factor_index_serves_every_first_order_bracket(ws, a):
    brackets = first_order_brackets(ws, a)
    assert brackets == [pscale(-1, commutator(a, w)) for w in ws]


def test_ad_first_order_weights_repeated_factors():
    # x_2 d_1 meets x_1 twice in x_1^2 d_1^2; x_1 d_2 meets d_1 twice;
    # x_1 d_1 is the grading on x_1 minus the grading on d_1
    a = {((1, 1), (1, 1)): Fraction(1)}
    ws = [first_order([(1, 2, 1)]), first_order([(1, 1, 2)]), first_order([(1, 1, 1)])]
    assert first_order_brackets(ws, a) == [
        {((1, 2), (1, 1)): 2}, {((1, 1), (1, 2)): -2}, {}]


@pytest.mark.parametrize("w", [
    multiplication(x(1)),
    dualize(x(1)),
    op_identity(),
    {((1, 2), (3,)): 1},
    padd(first_order([(1, 1, 2)]), dualize(pmul(x(1), x(2)))),
])
def test_ad_first_order_rejects_other_shapes(w):
    with pytest.raises(ValueError):
        first_order_brackets([euler_operator(), w], euler_operator())


@settings(max_examples=100)
@given(polys())
def test_json_round_trip(f):
    assert poly_from_json(poly_to_json(f)) == f


@settings(max_examples=50)
@given(polys())
def test_format_poly_mentions_every_variable(f):
    s = format_poly(f)
    assert s
    for m in f:
        for v in m:
            assert f"x{v}" in s


def test_dualize_pairs_monomial_with_itself():
    f = poly([(monomial({1: 2, 3: 1}), 1)])
    # <m, m> = product of factorials of the exponents
    assert apply(dualize(f), f) == {monomial({}): Fraction(2)}


def test_degree_of_product_adds():
    f = ppow(padd(x(1), x(2)), 3)
    g = ppow(x(3), 2)
    assert max(map(len, pmul(f, g))) == 5


# --- the Leibniz route for [a, mult(f)] --------------------------------

_small_var = st.integers(min_value=1, max_value=3)  # forces repeated indices


@st.composite
def coefficients(draw, fraction):
    n = draw(_coeff)
    return Fraction(n, draw(st.integers(1, 3))) if fraction else n


@st.composite
def leibniz_cases(draw):
    """Normal-ordered a of d-order up to 3 and f of degree up to 3, both
    with int or both with Fraction coefficients."""
    fraction = draw(st.booleans())
    a = poly(
        ((tuple(sorted(draw(st.lists(_small_var, max_size=2)))),
          tuple(sorted(draw(st.lists(_small_var, max_size=3))))),
         draw(coefficients(fraction)))
        for _ in range(draw(st.integers(1, 3)))
    )
    f = poly(
        (tuple(sorted(draw(st.lists(_small_var, max_size=3)))),
         draw(coefficients(fraction)))
        for _ in range(draw(st.integers(1, 4)))
    )
    return a, f


@settings(max_examples=200, deadline=None)
@given(leibniz_cases())
def test_leibniz_bracket_matches_commutator(case):
    a, f = case
    assert leibniz_bracket(a, f) == commutator(a, multiplication(f))


def test_leibniz_bracket_weights_repeated_derivatives():
    # [d_1^2, x_1^2] = 4 x_1 d_1 + 2, with d_1 f = 2 x_1 and d_1^2 f = 2
    out = leibniz_bracket(dualize(ppow(x(1), 2)), ppow(x(1), 2))
    assert out == {((1,), (1,)): 4, ((), ()): 2}
    assert all(type(c) is int for c in out.values())


@pytest.mark.parametrize("one", [1, Fraction(1, 3)], ids=["int", "Fraction"])
def test_leibniz_bracket_reuses_the_splits_of_a_shared_d_monomial(one):
    # x_1 d_1^2 and x_2 d_1^2 share d_1^2, whose splits are listed once;
    # d_1 d_2 has as many factors and must get splits of its own
    a = poly([(((1,), (1, 1)), one), (((2,), (1, 1)), 2 * one),
              (((), (1, 2)), -3 * one)])
    f = poly([((1, 1, 2), 5 * one), ((1, 2, 2), -one), ((1, 1, 1), 7 * one)])
    out = leibniz_bracket(a, f)
    assert out == commutator(a, multiplication(f))
    assert out
    assert all(type(c) is type(one) for c in out.values())


def test_helpers_keep_int_coefficients():
    f = padd(x(1, 2), poly([((1, 2), 3), ((), -1)]))
    a = padd(first_order([(2, 1, 2)]), pscale(3, dualize(f)))
    results = [
        x(1), f, pscale(2, f), psub(f, x(2)), pmul(f, f), ppow(f, 3),
        pdiv_exact(pscale(6, f), 3), apply(a, f),
        a, op_identity(), pscale(-1, a), compose(a, a),
        commutator(a, multiplication(f)), leibniz_bracket(a, f),
    ]
    for r in results:
        assert r
        assert all(type(c) is int for c in r.values()), r


def test_pdiv_exact_raises_on_a_remainder():
    assert pdiv_exact(poly([((1,), -6), ((2,), 3)]), -3) == {(1,): 2, (2,): -1}
    with pytest.raises(ValueError):
        pdiv_exact(poly([((1,), 6), ((2,), 4)]), 3)


# --- the variable-indexed applier against a scan of every term ----------


def _scan_apply(a, f):
    """Oracle: try every term of a on every monomial of f."""
    out = {}
    for m, cm in f.items():
        for (xe, de), c in a.items():
            rest = m
            mult = 1
            for v in de:
                e = rest.count(v)
                if not e:
                    break
                mult *= e
                i = rest.index(v)
                rest = rest[:i] + rest[i + 1:]
            else:
                target = tuple(sorted(rest + xe))
                w = out.get(target, 0) + c * cm * mult
                if w:
                    out[target] = w
                else:
                    out.pop(target, None)
    return out


@st.composite
def apply_cases(draw):
    """a with derivative parts of order 0..3 over three variables (so
    d_1^2 and the like are common) and f of up to 5 terms, possibly
    empty; both int or both Fraction."""
    fraction = draw(st.booleans())
    a = poly(
        ((tuple(sorted(draw(st.lists(_small_var, max_size=2)))),
          tuple(sorted(draw(st.lists(_small_var, max_size=3))))),
         draw(coefficients(fraction)))
        for _ in range(draw(st.integers(1, 4)))
    )
    f = poly(
        (tuple(sorted(draw(st.lists(_small_var, max_size=4)))),
         draw(coefficients(fraction)))
        for _ in range(draw(st.integers(0, 5)))
    )
    return a, f


@settings(max_examples=300, deadline=None)
@given(apply_cases())
# x_1 d_2 - x_2 d_1 kills x_1^2 + x_2^2: the image cancels to {}
@example((first_order([(1, 1, 2), (-1, 2, 1)]), poly([((1, 1), 1), ((2, 2), 1)])))
# an empty f, and a term with no derivative part
@example((op_identity(), {}))
@example((poly([(((2,), ()), Fraction(1, 2)), (((), (1, 1)), 3)]), {(1, 1, 2): Fraction(2, 3)}))
def test_apply_matches_the_term_scan(case):
    a, f = case
    out = apply(a, f)
    assert out == _scan_apply(a, f)
    assert all(out.values())

