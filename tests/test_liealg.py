"""Bracket algebra tests."""

import itertools
import random

from hypothesis import given, settings
import hypothesis.strategies as st

from e6poly.liealg import bracket
from e6poly.polyops import padd, poly, pscale
from e6poly.rootsys import alpha, vneg
from oracles import basis_elements


def test_basis_size():
    # 7 diagonal directions plus one element per root
    assert len(basis_elements()) == 7 + 126


def test_jacobi_identity():
    # every triple of the 18 simple generators, then seeded basis triples
    gens = [g for i in range(1, 7)
            for g in ({alpha(i): 1}, {vneg(alpha(i)): 1}, {("h", i): 1})]
    triples = list(itertools.product(gens, repeat=3))
    rng = random.Random(20240823)
    basis = basis_elements()
    triples += [tuple(rng.choice(basis) for _ in range(3)) for _ in range(200)]
    assert len(triples) == 18 ** 3 + 200
    broken = [
        n for n, (x, y, z) in enumerate(triples, start=1)
        if poly(t for a, b, c in ((x, y, z), (y, z, x), (z, x, y))
                for t in bracket(a, bracket(b, c)).items())
    ]
    assert broken == []


_idx = st.integers(min_value=0, max_value=132)


@settings(max_examples=150, deadline=None)
@given(_idx, _idx)
def test_bracket_antisymmetric(i, j):
    basis = basis_elements()
    x, y = basis[i], basis[j]
    assert padd(bracket(x, y), bracket(y, x)) == {}


@settings(max_examples=100, deadline=None)
@given(_idx, _idx, _idx)
def test_bracket_bilinear(i, j, k):
    basis = basis_elements()
    x, y, z = basis[i], basis[j], basis[k]
    lhs = bracket(padd(x, pscale(3, y)), z)
    rhs = padd(bracket(x, z), pscale(3, bracket(y, z)))
    assert lhs == rhs
