"""QuadExt-arithmetic references for the constructive Jordan splits.

These are the earlier implementations, kept here only to check the
integer code of `secant.jordan` against: the rank-2 split computed as
(x o x + mu x) / (2 mu) in QuadExt coordinates with its postconditions
checked on those coordinates, and the rank-3 peel with its own rank test
and Fraction postconditions.  Nothing in `secant` imports this module.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from secant.jordan import (
    AlbertElement,
    Rank2Split,
    Rank3Split,
    _div,
    f4_rank,
    jordan_rank,
    rank1_from_chart,
)
from secant.linalg import sqrt_element


def rank2_split(x: AlbertElement) -> Rank2Split:
    for co in x.coords():
        if not isinstance(co, (int, Q)):
            raise ValueError("rank2_split needs rational coordinates")
    if f4_rank(x) != 2:
        raise ValueError("rank2_split needs a trace-free element of rank 2")
    s_val = x.adjugate().trace()
    d = -s_val
    if d <= 0:
        raise ValueError("degenerate quadratic invariant %s" % (s_val,))
    mu = sqrt_element(d)
    xsq = x.jordan(x)
    inv2mu = _div(1, 2 * mu)
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
        v = rank1_from_chart(a0, yo, zo, lines=x.lines)
        pair = sharp.inner(v)
        if pair == 0:
            continue
        t_star = _div(det, pair)
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
