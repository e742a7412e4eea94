"""Fraction-arithmetic linear algebra, the reference for `secant.linalg`.

This is the earlier elimination, kept here only to check the fraction-free
engine against: Gauss-Jordan elimination on Fraction entries, with
`nullspace` and `inverse` read off its reduced rows in the same way, and
the Fraction dot product, matrix product and transpose that the other
references build on.  Nothing in `secant` imports this module.
"""

from __future__ import annotations

from fractions import Fraction as Q


def dot(u, v) -> Q:
    return sum((a * b for a, b in zip(u, v)), Q(0))


def row_reduce(mat):
    """(reduced row echelon rows as lists of Fractions, pivot columns)."""
    rows = [[Q(x) for x in row] for row in mat]
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                ref = rows[r]
                rows[i] = [a - f * b for a, b in zip(rows[i], ref)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(mat):
    rows = [list(row) for row in mat]
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_reduce(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


def inverse(mat):
    n = len(mat)
    aug = [list(row) + [Q(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    rref, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rref[:n]]


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Q(0)) for col in bt]
            for row in a]


def transpose(mat):
    return [list(col) for col in zip(*mat)]
