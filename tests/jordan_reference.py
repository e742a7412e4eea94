"""References for the octonion product and the constructive Jordan splits.

These are the earlier implementations, kept here only to check the code
of `secant.jordan` against: the octonion product as a loop over the 64
entries of the multiplication table, the rank-2 split computed as
(x o x + mu x) / (2 mu) in QuadExt coordinates with its postconditions
checked on those coordinates, the rank-3 peel with its own rank test
and Fraction postconditions, and the derivation basis built from dense
27x27 multiplication matrices (`dense_f4_derivations`).  `apply_matrix` applies a 27x27 coordinate
matrix, such as a derivation, to an element.  Nothing in `secant` imports
this module.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from secant.jordan import (
    FANO_LINES,
    AlbertElement,
    Rank2Split,
    Rank3Split,
    _check_tracefree,
    _coerce_num,
    _flat_table,
    jordan_rank,
    rank1_from_chart,
)
from secant.linalg import QuadExt, _exact_div, int_row_basis, rational_sqrt


def sqrt_element(x):
    """sqrt of a positive rational: a Fraction if x is a perfect square,
    otherwise the QuadExt sqrt(x) in Q(sqrt(x))."""
    x = Q(x)
    if x <= 0:
        raise ValueError("sqrt_element needs a positive rational")
    r = rational_sqrt(x)
    if r is not None:
        return r
    return QuadExt(0, 1, x)


def oct_mul(u, v, lines=FANO_LINES):
    """Product of two octonions, accumulated entry by entry over the flat
    multiplication table."""
    out = [0] * 8
    for i, j, k, s in _flat_table(lines):
        if s > 0:
            out[k] += u[i] * v[j]
        else:
            out[k] -= u[i] * v[j]
    return tuple(map(_coerce_num, out))


def rank2_split(x: AlbertElement) -> Rank2Split:
    for co in x.coords():
        if not isinstance(co, (int, Q)):
            raise ValueError("rank2_split needs rational coordinates")
    _check_tracefree(x)
    if jordan_rank(x) != 2:
        raise ValueError("rank2_split needs a trace-free element of rank 2")
    s_val = x.adjugate().trace()
    d = -s_val
    if d <= 0:
        raise ValueError("degenerate quadratic invariant %s" % (s_val,))
    mu = sqrt_element(d)
    xsq = x.jordan(x)
    inv2mu = _exact_div(1, 2 * mu)
    plus = (xsq + x.scale(mu)).scale(inv2mu)
    minus = x - plus
    if jordan_rank(plus) != 1 or jordan_rank(minus) != 1:
        raise AssertionError("rank-2 split produced pieces of wrong rank")
    if plus + minus != x:
        raise AssertionError("rank-2 split does not resum")
    if not plus.jordan(minus).is_zero():
        raise AssertionError("rank-2 split pieces are not orthogonal")
    return Rank2Split(plus=plus, minus=minus, disc=Q(d),
                      field_degree=1 if isinstance(mu, Q) else 2)


def rank3_split(x: AlbertElement, rng=None, budget: int = 64) -> Rank3Split:
    if jordan_rank(x) != 3:
        raise ValueError("rank3_split needs a full-rank element (det3 != 0)")
    if rng is None:
        rng = random.Random(0)
    sharp = x.adjugate()
    det = x.det3()
    for attempt in range(1, budget + 1):
        a0 = rng.randint(1, 5) * (1 if rng.random() < 0.5 else -1)
        yo = tuple(rng.randint(-3, 3) for _ in range(8))
        zo = tuple(rng.randint(-3, 3) for _ in range(8))
        v = rank1_from_chart(a0, yo, zo)
        pair = sharp.inner(v)
        if pair == 0:
            continue
        t_star = _exact_div(det, pair)
        piece = v.scale(t_star)
        residual = x - piece
        if residual.det3() != 0:
            raise AssertionError("residual determinant did not vanish")
        if jordan_rank(piece) != 1:
            raise AssertionError("peeled piece is not rank 1")
        if piece + residual != x:
            raise AssertionError("rank-3 split does not resum")
        return Rank3Split(piece=piece, residual=residual, attempts=attempt)
    raise ValueError("no transversal rank-1 direction found in %d samples" % budget)


def apply_matrix(mat, elem: AlbertElement) -> AlbertElement:
    """Apply a 27x27 coordinate matrix to an element."""
    co = elem.coords()
    out = []
    for row in mat:
        s = 0
        for m, v in zip(row, co):
            if m:
                s = s + m * v
        out.append(s)
    return AlbertElement.from_coords(out)


def _imatmul(a, b):
    """Integer matrix product exploiting sparsity of both factors."""
    n = len(a)
    bnz = [tuple((s, v) for s, v in enumerate(row) if v) for row in b]
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        orow = out[r]
        for k, av in enumerate(a[r]):
            if av:
                for s, bv in bnz[k]:
                    orow[s] += av * bv
    return out


def dense_f4_derivations():
    """The 52 matrices 4 [L_u, L_v] of `f4_derivations`, from dense 2 L_u
    matrices and dense commutators of every basis pair."""
    basis = [AlbertElement.basis_element(i) for i in range(27)]
    prods = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            co = basis[i].jordan(basis[j]).coords()
            icol = []
            for q in co:
                q2 = 2 * q
                if q2.denominator != 1:
                    raise AssertionError("basis product has denominator > 2")
                icol.append(int(q2))
            prods[i][j] = icol
            prods[j][i] = icol
    # 2 L_i as integer matrices: row r, column j = (2 e_i o e_j)_r
    mats = []
    for i in range(27):
        mats.append([[prods[i][j][r] for j in range(27)] for r in range(27)])
    comms = []
    flat = []
    for i in range(27):
        for j in range(i + 1, 27):
            ab = _imatmul(mats[i], mats[j])
            ba = _imatmul(mats[j], mats[i])
            cm = [[p - q for p, q in zip(rp, rq)] for rp, rq in zip(ab, ba)]
            comms.append(cm)
            flat.append([e for row in cm for e in row])
    idx = int_row_basis(flat)
    if len(idx) != 52:
        raise AssertionError("derivation span has dimension %d, expected 52" % len(idx))
    return [comms[k] for k in idx]
