"""References for the rank functions of `secant.ranks`.

These are exact functions that no command calls, kept here only to check
the library against from a second direction: the three flattening images
of a three-factor tensor, the divisor space, normalized quartic invariant
and linear transforms of an alternating 3-tensor on a 6-dimensional
space, and the Clifford annihilator of an even half-spinor, whose
dimension is 5 exactly on pure spinors.  Eliminations run in Fraction
arithmetic (`linalg_reference`).  Nothing in `secant` imports this module.
"""

from __future__ import annotations

import itertools
import math

from linalg_reference import nullspace, row_reduce
from secant.linalg import _exact_div, _exact_scalar, _integer_row
from secant.linalg import rank as mat_rank
from secant.ranks import (
    _CLIFFORD_ACTIONS,
    EVEN_SUBSETS,
    WEDGE3_TRIPLES,
    _check_matrix,
    _divisor_matrix,
    _tr2_table,
    _tr2_value,
    _wedge_rows,
)

#: Odd-cardinality subsets of {0,...,4}, ordered by (size, lexicographic):
#: the basis of the odd half-spinor space, where the gamma images land.
_ODD_SUBSETS = tuple(sorted(
    (tuple(s) for k in (1, 3, 5) for s in itertools.combinations(range(5), k)),
    key=lambda s: (len(s), s)))
_ODD_INDEX = {s: i for i, s in enumerate(_ODD_SUBSETS)}


def spinor_annihilator_dim(s) -> int:
    """Dimension of the space of Clifford directions killing s: 10 gamma
    actions (5 wedges, 5 contractions) into the odd half-spinor space.
    Equals 5 exactly on pure spinors; used as an independent cross-check."""
    co = [_exact_scalar(v) for v in s]
    cols = []
    for gamma in _CLIFFORD_ACTIONS:
        col = [0] * len(_ODD_SUBSETS)
        for pi, su in enumerate(EVEN_SUBSETS):
            act = gamma(su) if co[pi] else None
            if act is not None:
                sgn, mid = act
                col[_ODD_INDEX[mid]] += sgn * co[pi]
        cols.append(col)
    mat = [[cols[j][r] for j in range(10)] for r in range(len(_ODD_SUBSETS))]
    return 10 - mat_rank(mat)


def _flattening(vec, sizes, axis):
    """Matrix of a flat row-major tensor whose rows run along one axis."""
    stride = math.prod(sizes[axis + 1:])
    block = stride * sizes[axis]
    return [[vec[b + c * stride + s] for b in range(0, len(vec), block)
             for s in range(stride)] for c in range(sizes[axis])]


def flattening_images(coords, dims):
    """Bases (reduced echelon rows) of the three flattening images of a
    three-factor tensor given by flat coordinates in row-major order."""
    d1, d2, d3 = dims
    co = [_exact_scalar(v) for v in coords]
    if len(co) != d1 * d2 * d3:
        raise ValueError("tensor needs %d coordinates, got %d"
                         % (d1 * d2 * d3, len(co)))
    images = []
    for axis in range(3):
        # the image along an axis is spanned by its flattening's columns
        red, piv = row_reduce(zip(*_flattening(co, dims, axis)))
        images.append(red[:len(piv)])
    return tuple(images)


def wedge3_divisor_space(co):
    """Basis of the space of vectors v with v wedge psi = 0 (the divisors)."""
    # the kernel does not change when psi is scaled to integer coordinates
    return nullspace(_divisor_matrix(_integer_row(co)[0]))


def wedge3_quartic(co):
    """Quartic invariant normalized so the two-block element
    e0^e1^e2 + e3^e4^e5 takes value 1; vanishes on decomposable and
    divisible elements and is nonzero exactly on the open orbit.  It is
    homogeneous of degree 4, so it is evaluated on the coordinates with
    their denominators cleared."""
    poly, norm = _tr2_table()
    ints, den = _integer_row(_exact_scalar(v) for v in co)
    return _exact_div(_tr2_value(poly, ints), norm * den ** 4)


def wedge3_transform(co, mat):
    """Push an alternating 3-tensor through an invertible 6x6 matrix:
    coordinates transform by 3x3 minors."""
    m = _check_matrix(mat, square=True)
    if len(m) != 6:
        raise ValueError("transform needs a 6x6 matrix")
    co = [_exact_scalar(v) for v in co]
    cols = list(zip(*m))
    out = [0] * 20
    for src, c in zip(WEDGE3_TRIPLES, co):
        if c:
            # the image of e_src is the wedge of the three source columns
            image = _wedge_rows([cols[j] for j in src], 6)
            out = [acc + minor * c for acc, minor in zip(out, image)]
    return [_exact_scalar(v) for v in out]
