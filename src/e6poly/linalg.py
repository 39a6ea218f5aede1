"""Sparse exact linear algebra over the rationals.

Matrices are kept as lists of sparse rows (dict mapping column key ->
integer).  Elimination is fraction-free: a row is combined with a pivot row
by integer cross-multiplication and the result is divided by its content,
so no Fraction appears in the forward pass or in the back-substitution
that yields kernel bases.  `IntEchelon` is the one eliminator: ranks,
spans, closures and membership tests insert into it or reduce against
it.  `SpanCoordinates` is the one coordinates solver: it gives the exact
coordinates of a sparse vector (a polynomial or an operator) in the
span of labelled basis vectors, from one integer reduction and one
division at the end.  Column keys can be any comparable hashable
values, and an echelon takes its pivots in their order.
`kernel_basis` takes an explicit column order instead: it relabels its
rows to column positions once and solves over those ints, which fixes
the pivots and makes every basis reproducible.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Iterable, Sequence

Row = dict[Hashable, int]


def row_content(row: Row) -> int:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


def strip_content(row: Row) -> Row:
    g = row_content(row)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: Row, pivot_row: Row, col: Hashable) -> Row:
    """Return a*row - b*pivot_row with the entry at `col` cancelled."""
    a = pivot_row[col]
    b = row[col]
    out: Row = {}
    for c, v in row.items():
        out[c] = a * v
    for c, v in pivot_row.items():
        w = out.get(c, 0) - b * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return strip_content(out)


class IntEchelon:
    """Incremental integer row echelon form.

    Rows are inserted one at a time; each is reduced against the stored
    pivot rows.  When a pivot column is contested the row with the smaller
    pivot magnitude is kept (this bounds coefficient growth), and the other
    row continues through elimination.  A row's pivot is its least column
    key, or the least under `column_key` when one is given.
    """

    def __init__(self, column_key: Callable[[Hashable], object] | None = None):
        self.column_key = column_key
        self.pivots: dict[Hashable, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _lead(self, row: Row) -> Hashable:
        if self.column_key is None:
            return min(row)
        return min(row, key=self.column_key)

    def reduce(self, row: Row) -> Row:
        """Remainder of `row` against the pivots, up to a nonzero integer
        factor; empty exactly when `row` lies in their span.  The pivots
        are left unchanged."""
        row = strip_content(dict(row))
        while row:
            col = self._lead(row)
            held = self.pivots.get(col)
            if held is None:
                break
            row = _eliminate(row, held, col)
        return row

    def insert(self, row: Row) -> bool:
        """Reduce `row` against the pivots; return True if it adds rank."""
        row = strip_content(dict(row))
        while row:
            col = self._lead(row)
            held = self.pivots.get(col)
            if held is None:
                self.pivots[col] = row
                return True
            if abs(row[col]) < abs(held[col]):
                self.pivots[col], row = row, held
                held = self.pivots[col]
            row = _eliminate(row, held, col)
        return False


class SpanCoordinates:
    """Exact coordinates in the span of labelled sparse vectors.

    A basis row holds its entries under keys (0, key) and the entry
    (1, label) = -1; a vector to express holds the tag (2, 0) = 1.
    Entry keys come first, so a vector lies in the span exactly when its
    remainder r keeps no entry key, and its coordinate on `label` is
    then r[(1, label)] / r[(2, 0)].  Labels are distinct and comparable.
    """

    def __init__(self, basis: Iterable[tuple[Hashable, Row]]):
        self.echelon = IntEchelon()
        for label, vec in basis:
            self.echelon.insert({(0, k): c for k, c in vec.items()} | {(1, label): -1})

    @property
    def rank(self) -> int:
        """Pivots on entry keys only: a dependent basis vector leaves its
        pivot on a label."""
        return sum(tag == 0 for tag, _ in self.echelon.pivots)

    def express(self, vec: Row) -> dict[Hashable, Fraction] | None:
        """{label: coordinate} with zeros omitted, or None if `vec` is
        outside the span."""
        rem = self.echelon.reduce({(0, k): c for k, c in vec.items()} | {(2, 0): 1})
        if any(tag == 0 for tag, _ in rem):
            return None
        t = rem[(2, 0)]
        return {label: Fraction(c, t) for (tag, label), c in rem.items() if tag == 1}


def kernel_basis(
    rows: Iterable[Row],
    columns: Sequence[Hashable],
) -> list[dict[Hashable, int]]:
    """Kernel of the matrix whose rows are `rows` over columns `columns`.

    Basis vectors are integer, content 1, with a positive coefficient on
    the earliest column (in the order of `columns`) they touch.  One basis
    vector is produced per free column, in column order.  The rows are
    relabelled to column positions once, so elimination, back-substitution
    and the vectors' assembly compare and hash ints, and `columns` maps
    the positions back.
    """
    position = {c: i for i, c in enumerate(columns)}
    ech = IntEchelon()
    for row in rows:
        if row:
            ech.insert({position[c]: v for c, v in row.items()})
    if ech.rank == len(columns):
        return []  # every column is a pivot: no free column, no kernel

    # Integer back-substitution to reduced echelon form: working from the
    # last pivot backwards, each pivot row loses its entries in the later
    # pivot columns, so it keeps only its own pivot and free columns.
    reduced: dict[int, Row] = {}
    for p in sorted(ech.pivots, reverse=True):
        row = ech.pivots[p]
        for c in [c for c in row if c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[p] = row

    # Free column f: x_f = L and x_p = -r_p[f] * L / r_p[p] for each pivot
    # p whose row touches f, with L the lcm of those pivots.  A reduced
    # row has entries only at or after its pivot, so every p touching f
    # comes before f; walking the rows latest first, the last p met is
    # the vector's lead.  A column touched by one row gets {f: d, p: e}
    # up to sign, d = r_p[p] and e = -r_p[f], straight from that row (a
    # pivot column is touched by its own row alone, so its slot is
    # filled there and cleared after).  Dividing by the content signed
    # like the lead entry makes the vector primitive and positive on its
    # lead.
    touches = Counter()
    for row in reduced.values():
        touches.update(row.keys())
    slots: list[dict[Hashable, int] | None] = [None] * len(columns)
    shared: dict[int, list[tuple[Hashable, int, int]]] = {}
    for p, row in reduced.items():
        d = row[p]
        col = columns[p]
        for f, v in row.items():
            if touches[f] > 1:
                shared.setdefault(f, []).append((col, d, v))
            else:
                g = -gcd(d, v) if v > 0 else gcd(d, v)
                slots[f] = {columns[f]: d // g, col: -v // g}
    for p in reduced:
        slots[p] = None
    for f, entries in shared.items():
        scale = lcm(*(d for _, d, _ in entries))
        xs = [-v * (scale // d) for _, d, v in entries]
        g = -gcd(scale, *xs) if xs[-1] < 0 else gcd(scale, *xs)
        vec = {columns[f]: scale // g}
        for (col, _, _), x in zip(entries, xs):
            vec[col] = x // g
        slots[f] = vec
    for f in set(range(len(columns))).difference(touches):
        slots[f] = {columns[f]: 1}
    return [vec for vec in slots if vec is not None]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a small integer matrix by fraction-free elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
