"""Scalar references for the oracle's array predicates.

These are the earlier one-vector-at-a-time implementations of each
family's membership check and closed-form rank, kept here only to check
the array versions in `secant.oracle` against: each takes one coordinate
vector (a tuple of ints) and eliminates with `modp_rank` or
`modp_nullspace`.  Nothing in `secant` imports this module.
"""

from __future__ import annotations

import itertools

from secant.linalg import modp_nullspace, modp_rank
from secant.oracle import _SL3_CELLS, _isotropic_codec
from secant.ranks import (
    _divisor_matrix,
    _flattening,
    purity_quadric_table,
)


def _to_full(codec, sub):
    """Full coordinates of subspace coordinates, by substitution into the
    constraint rref."""
    full = [0] * codec.nfull
    for c, v in zip(codec.free, sub):
        full[c] = v % codec.p
    for row, piv in zip(codec.rref, codec.pivots):
        acc = sum(row[c] * full[c] for c in codec.free) % codec.p
        full[piv] = (-acc) % codec.p
    return full


def _segre(fam, p):
    sizes = fam["sizes"]
    return lambda rep: all(modp_rank(_flattening(rep, sizes, axis), p) == 1
                           for axis in range(len(sizes) - 1))


def _veronese(fam, p):
    n = fam["n"]
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def member(rep):
        full = [[0] * n for _ in range(n)]
        for (i, j), val in zip(cells, rep):
            full[i][j] = full[j][i] = val
        return modp_rank(full, p) == 1
    return member


def _wedge(k, isotropic):
    def make(fam, p):
        n = fam["n"]

        def member(rep):
            vec = list(rep)
            if isotropic:
                vec = _to_full(_isotropic_codec(n, k, p), vec)
            return len(modp_nullspace(_divisor_matrix(vec, n, k), p)) == k
        return member
    return make


def _quadric(fam, p):
    def member(rep):
        n = len(rep)
        total = sum(rep[2 * i] * rep[2 * i + 1] for i in range(n // 2))
        if n % 2:
            total += rep[n - 1] * rep[n - 1]
        return total % p == 0
    return member


def _spinor(fam, p):
    quadrics = purity_quadric_table()
    return lambda rep: all(
        sum(c * rep[a] * rep[b] for (a, b), c in quad.items()) % p == 0
        for quad in quadrics)


def _sl3(fam, p):
    def member(rep):
        mat = [[0] * 3 for _ in range(3)]
        for (i, j), val in zip(_SL3_CELLS, rep):
            mat[i][j] = val
        mat[2][2] = -mat[0][0] - mat[1][1]
        return modp_rank(mat, p) == 1
    return member


#: kind -> (fam, p) -> predicate on one coordinate tuple
MEMBER = {
    "segre": _segre, "segre3": _segre, "veronese2": _veronese,
    "gr2": _wedge(2, False), "gr3": _wedge(3, False),
    "lambda20": _wedge(2, True), "lambda30": _wedge(3, True),
    "quadric": _quadric, "spinor10": _spinor, "sl3adj": _sl3,
}


def _matrix_rank(fam, p):
    return lambda vec: modp_rank(_flattening(vec, fam["sizes"], 0), p)


def _half_skew_rank(fam, p):
    n = fam["n"]

    def rank(vec):
        mat = [[0] * n for _ in range(n)]
        for (i, j), v in zip(itertools.combinations(range(n), 2), vec):
            mat[i][j] = v
            mat[j][i] = (-v) % p
        return modp_rank(mat, p) // 2
    return rank


#: kind -> (fam, p) -> rank of one coordinate tuple, for the kinds with a
#: closed-form rank
CLOSED_FORM = {"segre": _matrix_rank, "gr2": _half_skew_rank}
