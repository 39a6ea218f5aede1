"""The rank-7 Lie algebra spanned by the Cartan lattice and root vectors.

An element is a `polyops` sparse dict of exact coefficients: the key
("h", i) stands for the Cartan direction alpha_i (1 <= i <= 7) and a
root 7-vector r for the root vector e_r.  The structure constants are
integers.  The bracket:

    [h, e_r]     = (h, r) e_r
    [e_r, e_-r]  = -h_r
    [e_r, e_s]   = F(r, s) e_{r+s}   when r+s is a root, else 0

with F the lattice cocycle from `rootsys`.  Antisymmetry and the Jacobi
identity are consequences; the tests check both on samples.
"""

from __future__ import annotations

from .polyops import poly
from .rootsys import alpha, bilinear, cocycle_F, root_system, vadd


def bracket(a: dict, b: dict) -> dict:
    """[a, b] for elements keyed by ("h", i) and root vectors."""
    rset = root_system().root_set

    def terms():
        for ka, ca in a.items():
            for kb, cb in b.items():
                if ka[0] == "h":
                    if kb[0] != "h":
                        yield kb, ca * cb * bilinear(alpha(ka[1]), kb)
                elif kb[0] == "h":
                    yield ka, -ca * cb * bilinear(alpha(kb[1]), ka)
                elif not any(t := vadd(ka, kb)):
                    yield from ((("h", i), -ca * cb * ri)
                                for i, ri in enumerate(ka, start=1))
                elif t in rset:
                    yield t, ca * cb * cocycle_F(ka, kb)

    return poly(terms())
