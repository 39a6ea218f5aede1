"""The rank-7 Lie algebra spanned by the Cartan lattice and root vectors.

An element is an exact (`int` or Fraction) combination of Cartan vectors
h_v (v a lattice vector, embedded linearly) and root vectors e_r (r a
root).  The structure constants are integers.  The bracket:

    [h, e_r]     = (h, r) e_r
    [e_r, e_-r]  = -h_r
    [e_r, e_s]   = F(r, s) e_{r+s}   when r+s is a root, else 0

with F the lattice cocycle from `rootsys`.  Antisymmetry and the Jacobi
identity are consequences; `jacobi_check` verifies them on samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .polyops import Coeff
from .rootsys import CARTAN_E7, Vector, alpha, cocycle_F, root_system, vadd, vneg


@dataclass
class AlgElement:
    """cartan: coefficients on alpha_1..alpha_7; roots: root -> coefficient."""

    cartan: dict[int, Coeff] = field(default_factory=dict)
    roots: dict[Vector, Coeff] = field(default_factory=dict)

    def normalized(self) -> "AlgElement":
        return AlgElement(
            cartan={i: c for i, c in self.cartan.items() if c},
            roots={r: c for r, c in self.roots.items() if c},
        )

    def is_zero(self) -> bool:
        return not self.normalized().cartan and not self.normalized().roots

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return a.cartan == b.cartan and a.roots == b.roots


def cartan_element(v: Vector, coeff: Coeff = 1) -> AlgElement:
    out: dict[int, Coeff] = {}
    for i, c in enumerate(v):
        if c:
            out[i] = coeff * c
    return AlgElement(cartan=out)


def root_element(r: Vector, coeff: Coeff = 1) -> AlgElement:
    return AlgElement(roots={r: coeff})


def add(a: AlgElement, b: AlgElement) -> AlgElement:
    cart = dict(a.cartan)
    for i, c in b.cartan.items():
        cart[i] = cart.get(i, 0) + c
    roots = dict(a.roots)
    for r, c in b.roots.items():
        roots[r] = roots.get(r, 0) + c
    return AlgElement(cartan=cart, roots=roots).normalized()


def scale(k: Coeff, a: AlgElement) -> AlgElement:
    return AlgElement(
        cartan={i: k * c for i, c in a.cartan.items()},
        roots={r: k * c for r, c in a.roots.items()},
    ).normalized()


def bracket(a: AlgElement, b: AlgElement) -> AlgElement:
    rset = root_system().root_set
    cart: dict[int, Coeff] = {}
    roots: dict[Vector, Coeff] = {}
    # [h, e_r] = (h, r) e_r, both ways round
    for h, elem, sign in ((a.cartan, b, 1), (b.cartan, a, -1)):
        for r, c in elem.roots.items():
            row = _pair_row(r)
            pairing = sum(hc * row[i] for i, hc in h.items())
            if pairing:
                roots[r] = roots.get(r, 0) + sign * c * pairing
    for r, ca in a.roots.items():
        for s, cb in b.roots.items():
            t = vadd(r, s)
            if not any(t):
                # [e_r, e_-r] = -h_r
                for i, ri in enumerate(r):
                    if ri:
                        cart[i] = cart.get(i, 0) - ca * cb * ri
            elif t in rset:
                roots[t] = roots.get(t, 0) + ca * cb * cocycle_F(r, s)
    return AlgElement(cartan=cart, roots=roots).normalized()


@lru_cache(maxsize=None)
def _pair_row(r: Vector) -> Vector:
    """(alpha_i, r) for i = 1..7."""
    return tuple(sum(CARTAN_E7[i][j] * r[j] for j in range(7)) for i in range(7))


def basis_elements() -> list[AlgElement]:
    rs = root_system()
    out: list[AlgElement] = [cartan_element(tuple(1 if j == i else 0 for j in range(7)))
                             for i in range(7)]
    out.extend(root_element(r) for r in rs.roots)
    return out


@dataclass(frozen=True)
class JacobiReport:
    ok: bool
    triples_checked: int
    failures: tuple[str, ...]


def jacobi_check(seed: int = 20240823, n_random: int = 500) -> JacobiReport:
    """Jacobi identity on simple-generator triples plus random basis triples."""
    gens: list[AlgElement] = []
    for i in range(1, 7):
        gens.append(root_element(alpha(i)))
        gens.append(root_element(vneg(alpha(i))))
        gens.append(cartan_element(alpha(i)))
    fails: list[str] = []
    count = 0

    def jacobi(x: AlgElement, y: AlgElement, z: AlgElement) -> bool:
        s = add(
            add(bracket(x, bracket(y, z)), bracket(y, bracket(z, x))),
            bracket(z, bracket(x, y)),
        )
        return s.is_zero()

    for x in gens:
        for y in gens:
            for z in gens:
                count += 1
                if not jacobi(x, y, z):
                    fails.append(f"simple-generator triple #{count}")

    rng = random.Random(seed)
    basis = basis_elements()
    for _ in range(n_random):
        x, y, z = (basis[rng.randrange(len(basis))] for _ in range(3))
        count += 1
        if not jacobi(x, y, z):
            fails.append(f"random triple #{count}")

    return JacobiReport(ok=not fails, triples_checked=count, failures=tuple(fails[:10]))
