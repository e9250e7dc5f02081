"""Unique normal forms modulo an integer row lattice.

Relations in the truncated quotient rings span a sublattice of Z^n.  An
echelon basis of it has one pivot row per pivot column, whose lowest
nonzero column is that pivot column, holding a positive pivot value g.
Leading-term rewriting alone is not enough because 2 is not invertible in
the rings of interest, so ``reduce`` walks the pivot columns in ascending
order and replaces each entry by its least-absolute residue modulo g (ties
resolved to the positive one).  Later steps only touch higher columns, so
every pivot-column entry of a result lies in (-g/2, g/2].

That makes the result unique per coset, whatever the pivot rows' entries
beyond their pivot.  Two results of one coset differ by a lattice vector.
Were it nonzero, its lowest nonzero entry would sit in a pivot column and
be a multiple of that pivot's g, yet as a difference of two residues in
(-g/2, g/2] it is below g in absolute value; so the results are equal, and
the basis needs no back-reduction of earlier pivot rows.

Rows are sparse ``{column: value}`` dicts; the generator sets that arise
here (monomial multiples of a 2-series) have only a handful of entries
each, so the echelon pass stays cheap even for a few thousand columns.
"""

from __future__ import annotations

Row = dict[int, int]


def _least_abs_quotient(value: int, modulus: int) -> int:
    """q such that value - q*modulus lies in (-modulus/2, modulus/2]."""
    r = value % modulus
    if 2 * r > modulus:
        r -= modulus
    return (value - r) // modulus


def _row_subtract(row: Row, factor: int, other: Row) -> None:
    if not factor:
        return
    for col, val in other.items():
        new = row.get(col, 0) - factor * val
        if new:
            row[col] = new
        else:
            row.pop(col, None)


class IntegerLattice:
    """Row lattice in Z^ncols with an echelon basis, one pivot row per
    pivot column, each with a positive pivot value."""

    def __init__(self, rows: list[Row], ncols: int):
        self.ncols = ncols
        self.pivots: list[tuple[int, Row]] = []
        self._build([dict(r) for r in rows if r])

    def _build(self, rows: list[Row]) -> None:
        buckets: dict[int, list[Row]] = {}
        for r in rows:
            buckets.setdefault(min(r), []).append(r)
        for col in range(self.ncols):
            live = buckets.pop(col, None)
            if not live:
                continue
            while len(live) > 1:
                live.sort(key=lambda r: abs(r[col]))
                base = live[0]
                survivors = [base]
                for r in live[1:]:
                    _row_subtract(r, r[col] // base[col], base)
                    if not r:
                        continue
                    if r.get(col):
                        survivors.append(r)
                    else:
                        buckets.setdefault(min(r), []).append(r)
                live = survivors
            pivot = live[0]
            if pivot[col] < 0:
                pivot = {c: -v for c, v in pivot.items()}
            self.pivots.append((col, pivot))

    def reduce(self, vector: Row) -> Row:
        """The unique representative of vector + lattice whose pivot-column
        entries are least-absolute residues modulo their pivot values."""
        vec = {c: v for c, v in vector.items() if v}
        for col, prow in self.pivots:
            val = vec.get(col)
            if val:
                _row_subtract(vec, _least_abs_quotient(val, prow[col]), prow)
        return vec
