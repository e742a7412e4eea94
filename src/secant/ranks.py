"""Exact rank functions for the tame families and small wildness witnesses.

Covers: classical matrix rank (two-factor products), symmetric-square rank,
skew two-form rank (half the matrix rank), quadric point rank with an
explicit two-isotropics certificate, half-spinor purity in dimension 16,
constructive peeling of trace-free two-forms over a symplectic space into
form-isotropic planes, flattening images of three-factor tensors, the
alternating 3-tensor rank test on a 6-dimensional space driven by a quartic
invariant, and the symplectic rank-3 witness element.

Tensor payloads serialize as JSON objects {"shape", "dims", "coords"} with
exact "p/q" rational strings; `SHAPES` lists the shapes, the exceptional
Jordan algebra's included, and the `Tensor` docstring their coordinate
layouts.

Scalars are int first: every input goes through `secant.linalg._exact_scalar`
(ints stay ints, a Fraction with denominator 1 becomes an int, a float
raises TypeError), ranks and eliminations run on integer multiples with
cleared denominators, and a Fraction appears only where a division forces
one.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .jordan import AlbertElement, jordan_rank
from .linalg import (
    QuadExt,
    _exact_div,
    _exact_scalar,
    _integer_matrix,
    _integer_row,
    exact_rationals,
    int_rank,
    mirror_symplectic_form,
    nullspace,
    rank as mat_rank,
    row_reduce,
    split_symplectic_form,
)

__all__ = [
    "Tensor",
    "SHAPES",
    "CoformDecomposition",
    "Sp6WitnessReport",
    "tensor_to_json",
    "tensor_from_json",
    "albert_to_json",
    "albert_from_json",
    "segre_rank",
    "veronese2_rank",
    "gr2_rank",
    "quadric_rank",
    "quadric_split",
    "split_symplectic_form",
    "spinor10_rank",
    "purity_quadrics",
    "purity_quadric_table",
    "pure_even_spinor",
    "EVEN_SUBSETS",
    "coform_rank_decompose",
    "flattening_images",
    "wedge3_c6_rank",
    "wedge3_quartic",
    "wedge3_divisor_space",
    "wedge3_transform",
    "wedge3_tr2_poly",
    "WEDGE3_TRIPLES",
    "WEDGE3_INDEX",
    "wedge3_from_triples",
    "sp6_wedge3_witness",
    "rank_of_tensor",
]


def _perm_sign(seq) -> int:
    """Sign of the permutation that sorts seq (distinct entries)."""
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def _check_matrix(mat, square=False):
    if not mat or not mat[0]:
        raise ValueError("empty matrix")
    ncol = len(mat[0])
    if any(len(row) != ncol for row in mat):
        raise ValueError("ragged matrix")
    if square and len(mat) != ncol:
        raise ValueError("matrix must be square")
    return [[_exact_scalar(v) for v in row] for row in mat]


# ---------------------------------------------------------------------------
# Classical families
# ---------------------------------------------------------------------------

def segre_rank(mat) -> int:
    """Rank of a rectangular matrix (two-factor product rank); exact."""
    return mat_rank(_check_matrix(mat))


def veronese2_rank(mat) -> int:
    """Rank of a symmetric matrix (quadratic form written as a sum of
    squares); validates the symmetry exactly."""
    m = _check_matrix(mat, square=True)
    n = len(m)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric at (%d,%d)" % (i, j))
    return mat_rank(m)


def gr2_rank(mat) -> int:
    """Number of planes in a minimal plane decomposition of a skew two-form:
    half the matrix rank."""
    m = _check_matrix(mat, square=True)
    n = len(m)
    for i in range(n):
        if m[i][i] != 0:
            raise ValueError("skew matrix has nonzero diagonal at %d" % i)
        for j in range(i + 1, n):
            if m[i][j] != -m[j][i]:
                raise ValueError("matrix is not skew at (%d,%d)" % (i, j))
    r = mat_rank(m)
    if r % 2:
        raise ValueError("skew matrix with odd rank %d — corrupted input" % r)
    return r // 2


# ---------------------------------------------------------------------------
# Quadric hypersurface
# ---------------------------------------------------------------------------

def _pairing(a, v, n):
    """B(a, v) for the split symmetric form on n coordinates
    (`split_symmetric_form`), nondegenerate by construction, so no Gram
    matrix is built: coordinate k pairs with k ^ 1, and the last one with
    itself when n is odd.  a is an iterable of (coordinate, coefficient)
    pairs and v a dict of them."""
    odd = n - 1 if n % 2 else -1
    return _exact_scalar(sum(c * v.get(k if k == odd else k ^ 1, 0)
                             for k, c in a))


def _value(vec):
    """q(vec) = B(vec, vec) of a dense vector."""
    coords = dict(enumerate(vec))
    return _pairing(coords.items(), coords, len(vec))


def quadric_rank(v) -> int:
    """1 if the vector is isotropic for the split symmetric form, 2
    otherwise (every point off the quadric is a sum of two on it).
    ValueError on fewer than 2 coordinates, where the form x^2 has no
    nonzero isotropic vector."""
    vec = [_exact_scalar(x) for x in v]
    if len(vec) < 2:
        raise ValueError("a quadric needs at least 2 coordinates, got %d"
                         % len(vec))
    if all(x == 0 for x in vec):
        raise ValueError("zero vector has no rank")
    return 1 if _value(vec) == 0 else 2


def quadric_split(v):
    """Certificate for quadric rank: a list of 1 or 2 vectors, isotropic
    for the split symmetric form, summing to v exactly.  The direction a
    of the second piece has q(a) = 0 and B(a, v) != 0: the first coordinate
    vector e_i, off the odd last coordinate, with v[i ^ 1] != 0; if there
    is none, v = c*e_last with n odd, and a = e_0 - 2e_1 + 2e_last pairs
    to 2c with it."""
    vec = [_exact_scalar(x) for x in v]
    if quadric_rank(vec) == 1:
        return [vec]
    n, coords = len(vec), dict(enumerate(vec))
    a = next((((i, 1),) for i in range(n - n % 2) if vec[i ^ 1]),
             ((0, 1), (1, -2), (n - 1, 2)))
    # v = t*a + (v - t*a) with q(a) = 0 and B(a, v) != 0
    t = _exact_div(_value(vec), 2 * _pairing(a, coords, n))
    coeff = dict(a)
    p1 = [_exact_scalar(t * coeff.get(k, 0)) for k in range(n)]
    p2 = [_exact_scalar(x - y) for x, y in zip(vec, p1)]
    if _value(p1) or _value(p2):
        raise AssertionError("quadric split piece is not isotropic")
    if [x + y for x, y in zip(p1, p2)] != vec:
        raise AssertionError("quadric split does not resum")
    return [p1, p2]


# ---------------------------------------------------------------------------
# Half-spinor purity (16-dimensional model)
# ---------------------------------------------------------------------------

#: Basis of the even half-spinor space: even-cardinality subsets of
#: {0,...,4} as sorted tuples, ordered by (size, lexicographic).
EVEN_SUBSETS = tuple(sorted(
    (tuple(s) for k in (0, 2, 4) for s in itertools.combinations(range(5), k)),
    key=lambda s: (len(s), s)))

_EVEN_INDEX = {s: i for i, s in enumerate(EVEN_SUBSETS)}

#: Odd-cardinality subsets, for intermediate gamma images.
_ODD_SUBSETS = tuple(sorted(
    (tuple(s) for k in (1, 3, 5) for s in itertools.combinations(range(5), k)),
    key=lambda s: (len(s), s)))
_ODD_INDEX = {s: i for i, s in enumerate(_ODD_SUBSETS)}


def _wedge_one(i, subset):
    """e_i wedge e_subset -> (sign, new subset) or None."""
    if i in subset:
        return None
    pos = sum(1 for j in subset if j < i)
    new = tuple(sorted(subset + (i,)))
    return ((-1) ** pos, new)


def _contract_one(i, subset):
    """Interior product by the i-th dual vector -> (sign, new subset) or None."""
    if i not in subset:
        return None
    pos = subset.index(i)
    new = subset[:pos] + subset[pos + 1:]
    return ((-1) ** pos, new)


#: The ten Clifford actions on exterior monomials, each subset -> (sign,
#: new subset) or None: wedge by the five vectors, then contraction by the
#: five dual vectors.
_CLIFFORD_ACTIONS = tuple(
    functools.partial(act, i) for act in (_wedge_one, _contract_one)
    for i in range(5))


def _chevalley_pair(su, sv):
    """Pairing of exterior monomials: nonzero only on complementary subsets,
    with the sign of reversing the first factor then shuffling to the top."""
    if set(su) & set(sv) or len(su) + len(sv) != 5:
        return 0
    rev = (-1) ** (len(su) * (len(su) - 1) // 2)
    return rev * _perm_sign(su + sv)


def purity_quadric_table():
    """The ten purity quadrics as dicts {(p, q): integer coefficient} over
    ordered pairs p <= q of even-subset indices.  A nonzero even half-spinor
    is pure (a single exterior power of an isotropic 5-plane model point)
    iff all ten vanish.  Coefficients are halved so every monomial appears
    with coefficient +-1."""
    quadrics = []
    for gamma in _CLIFFORD_ACTIONS:
        coeff = {}
        for pi, su in enumerate(EVEN_SUBSETS):
            act = gamma(su)
            if act is None:
                continue
            sgn, mid = act
            for qi, sv in enumerate(EVEN_SUBSETS):
                pairing = _chevalley_pair(mid, sv)
                if pairing:
                    key = (pi, qi) if pi <= qi else (qi, pi)
                    coeff[key] = coeff.get(key, 0) + sgn * pairing
        halved = {}
        for key, val in coeff.items():
            if val:
                if val % 2:
                    raise AssertionError("purity quadric has odd coefficient")
                halved[key] = val // 2
        quadrics.append(halved)
    return quadrics


@functools.lru_cache(maxsize=None)
def _quadrics():
    return purity_quadric_table()


def purity_quadrics(s):
    """Evaluate the ten purity quadrics on a 16-coordinate even spinor."""
    co = [_exact_scalar(v) for v in s]
    if len(co) != 16:
        raise ValueError("even half-spinor needs 16 coordinates")
    return [_exact_scalar(sum(c * co[p] * co[q] for (p, q), c in quad.items()))
            for quad in _quadrics()]


def spinor10_rank(s) -> int:
    """1 if the nonzero spinor is pure (all ten quadrics vanish), else 2."""
    co = [_exact_scalar(v) for v in s]
    if len(co) != 16:
        raise ValueError("even half-spinor needs 16 coordinates")
    if all(v == 0 for v in co):
        raise ValueError("zero spinor has no rank")
    return 1 if all(v == 0 for v in purity_quadrics(co)) else 2


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


def pure_even_spinor(omega):
    """Pure spinor exp(omega) . vacuum for a skew 5x5 parameter matrix:
    coordinates 1, omega_(ij), pfaffian of 4x4 minors."""
    w = _check_matrix(omega, square=True)
    if len(w) != 5:
        raise ValueError("parameter matrix must be 5x5")
    for i in range(5):
        if w[i][i] != 0:
            raise ValueError("parameter matrix must be skew")
        for j in range(5):
            if w[i][j] != -w[j][i]:
                raise ValueError("parameter matrix must be skew")
    co = [0] * 16
    co[_EVEN_INDEX[()]] = 1
    for i, j in itertools.combinations(range(5), 2):
        co[_EVEN_INDEX[(i, j)]] = w[i][j]
    for sub in itertools.combinations(range(5), 4):
        a, b, c, d = sub
        pf = w[a][b] * w[c][d] - w[a][c] * w[b][d] + w[a][d] * w[b][c]
        co[_EVEN_INDEX[sub]] = _exact_scalar(pf)
    return co


# ---------------------------------------------------------------------------
# Coform peeling over a symplectic space
# ---------------------------------------------------------------------------

@dataclass
class CoformDecomposition:
    """Peeled two-form: pairs (x_i, y_i) with sum of x_i ^ y_i equal to the
    input and every pair isotropic for the split symplectic form."""
    pairs: list

    @property
    def rank(self) -> int:
        return len(self.pairs)


def _symplectic_pairing(x, y):
    """x^T J y for the split symplectic form J (`split_symplectic_form`):
    the sum over pairs (2i, 2i+1) of x_2i y_2i+1 - x_2i+1 y_2i."""
    return sum(x[k] * y[k + 1] - x[k + 1] * y[k] for k in range(0, len(x), 2))


def coform_rank_decompose(w) -> CoformDecomposition:
    """Decompose a two-form annihilated by the split symplectic form into
    rank(w)/2 isotropic planes; self-verifies reassembly and isotropy.

    Peeling step: choose covectors phi, psi with c = phi^T W psi != 0 whose
    induced plane (W phi, W psi) is isotropic; subtracting the scaled plane
    drops the matrix rank by exactly 2 and keeps the trace-free condition.
    Coordinate covector pairs are tried in lexicographic order first; after
    that, for each candidate phi (coordinate covectors, then seeded integer
    vectors) the isotropy constraint — linear in psi — is solved directly,
    which succeeds for every phi outside a proper closed locus.

    The loop runs on an integer rescaling of the input with one tracked
    denominator (peeling multiplies through by the pivot instead of
    dividing), so the hot path, the input checks included, is pure integer
    arithmetic; the emitted pairs are exact rationals and the result is
    re-verified against the original input.
    """
    # integer rescaling: A / den == current remainder, den > 0
    a, den = _integer_matrix(_check_matrix(w, square=True))
    cleared = (a, den)
    n = len(a)
    for i in range(n):
        if a[i][i] != 0:
            raise ValueError("two-form matrix has nonzero diagonal")
        for j in range(i + 1, n):
            if a[i][j] != -a[j][i]:
                raise ValueError("two-form matrix is not skew")
    if n % 2:
        raise ValueError("symplectic space needs even dimension, got %d" % n)
    if sum(a[k][k + 1] for k in range(0, n, 2)) != 0:
        raise ValueError("input two-form is not annihilated by the symplectic form")

    initial_rank = int_rank(a)
    ibasis = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    pairs = []
    rng = random.Random(0)
    while any(any(row) for row in a):
        if 2 * len(pairs) >= initial_rank:
            # each peel subtracts a rank-<=2 plane, so a nonzero remainder
            # here means some step failed to drop the rank by two
            raise AssertionError("peel did not drop the rank by 2")
        found = None
        # first pass: coordinate covector pairs in lexicographic order
        # (the image of a coordinate covector is just a matrix column)
        for p, q in itertools.combinations(range(n), 2):
            if a[p][q] == 0:
                continue
            x = [row[p] for row in a]
            y = [row[q] for row in a]
            if _symplectic_pairing(x, y) == 0:
                found = (x, y, a[p][q])
                break
        if found is None:
            # for fixed phi with x = W phi != 0: isotropy of (x, W psi) is the
            # linear condition r . psi = 0 with r_k = sum_ij x_i f_ij W_jk,
            # and c = phi^T W psi = -(x . psi); solve for psi directly
            # (psi is only needed up to scale, so it stays integral)
            def solve_psi(phi):
                x = [sum(row[k] * phi[k] for k in range(n) if phi[k])
                     for row in a]
                if not any(x):
                    return None
                xf = [0] * n  # x^T J
                for k in range(0, n, 2):
                    xf[k], xf[k + 1] = -x[k + 1], x[k]
                r = [sum(xf[j] * a[j][k] for j in range(n) if xf[j])
                     for k in range(n)]
                if not any(r):
                    for i in range(n):
                        if x[i]:
                            return ibasis[i]
                    return None
                for i in range(n):
                    if r[i] == 0 and x[i] != 0:
                        return ibasis[i]
                j = next(k for k in range(n) if r[k])
                for i in range(n):
                    if i == j:
                        continue
                    # psi = r_j e_i - r_i e_j kills r; need x . psi != 0
                    if x[i] * r[j] - r[i] * x[j] != 0:
                        psi = [0] * n
                        psi[i] = r[j]
                        psi[j] = -r[i]
                        return psi
                return None  # x proportional to r: this phi is degenerate

            phi_candidates = itertools.chain(
                ibasis,
                ([rng.randint(-5, 5) for _ in range(n)] for _ in range(200)))
            for phi in phi_candidates:
                psi = solve_psi(phi)
                if psi is not None:
                    x = [sum(row[k] * phi[k] for k in range(n) if phi[k])
                         for row in a]
                    y = [sum(row[k] * psi[k] for k in range(n) if psi[k])
                         for row in a]
                    found = (x, y, sum(pv * yv for pv, yv in zip(phi, y)))
                    break
        if found is None:
            raise ValueError("no isotropic pivot found; input outside the "
                             "expected stratum")
        x, y, c = found  # remainder values are x/den, y/den, c/den
        # peel (x/c) ^ (y/den): both covectors land in the kernel of the
        # remainder, so the matrix rank drops by exactly 2
        pairs.append(([_exact_div(v, c) for v in x],
                      [_exact_div(v, den) for v in y]))
        a = [[c * a[i][j] - (x[i] * y[j] - x[j] * y[i]) for j in range(n)]
             for i in range(n)]
        den *= c
        if den < 0:
            den = -den
            a = [[-v for v in row] for row in a]
        g = den
        for row in a:
            for v in row:
                g = math.gcd(g, v)
        if g > 1:
            den //= g
            a = [[v // g for v in row] for row in a]

    if 2 * len(pairs) != initial_rank:
        raise AssertionError("peel did not drop the rank by 2")
    _verify_pairs(pairs, *cleared, _symplectic_pairing)
    return CoformDecomposition(pairs=pairs)


def _verify_pairs(pairs, a, den, bil):
    """AssertionError unless every rational pair (x, y) has bil(x, y) == 0
    and the x ^ y sum to a / den (a an integer matrix, den > 0).

    Runs in integers: with x = X / dx and y = Y / dy cleared and L the lcm
    of den and every dx * dy, it compares the sum of (L / (dx dy)) X ^ Y
    with (L / den) a.  ``bil`` is bilinear, so it is tested on X and Y.
    """
    n = len(a)
    cleared = []
    for x, y in pairs:
        (xs, dx), (ys, dy) = _integer_row(x), _integer_row(y)
        if bil(xs, ys) != 0:
            raise AssertionError("peeled pair is not isotropic")
        cleared.append((xs, ys, dx * dy))
    big = math.lcm(den, *(d for _, _, d in cleared))
    total = [[v * (big // den) for v in row] for row in a]
    for xs, ys, d in cleared:
        s = big // d
        for i in range(n):
            sx, sy, row = s * xs[i], s * ys[i], total[i]
            for j in range(n):
                row[j] -= sx * ys[j] - sy * xs[j]
    if any(any(row) for row in total):
        raise AssertionError("decomposition does not reassemble the input")


# ---------------------------------------------------------------------------
# Three-factor flattenings
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Alternating 3-tensors on a 6-dimensional space
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _subset_index(n: int, k: int) -> dict:
    """{k-subset of range(n): its coordinate}, subsets in lexicographic
    order: the coordinates of k-vectors on an n-dimensional space."""
    return {s: t for t, s in enumerate(itertools.combinations(range(n), k))}


#: {lexicographic triple: coordinate} for the 20 coordinates.
WEDGE3_INDEX = _subset_index(6, 3)
#: Lexicographic triples indexing the 20 coordinates.
WEDGE3_TRIPLES = tuple(WEDGE3_INDEX)


@functools.lru_cache(maxsize=None)
def _wedge_template(n: int, k: int) -> tuple:
    """The product v ^ w of a vector v and a k-vector w on n coordinates:
    one row per (k+1)-subset S, in lexicographic order, of triples
    (i, t, sign) with (v ^ w)[S] = sum of sign * v[i] * w[t], where t is
    the coordinate of S without i and sign is -1 to the position of i in
    S.  Read by columns it is the divisor matrix of w; read by rows it
    builds wedges of vectors one factor at a time."""
    index = _subset_index(n, k)
    return tuple(
        tuple((i, index[s[:pos] + s[pos + 1:]], -1 if pos % 2 else 1)
              for pos, i in enumerate(s))
        for s in itertools.combinations(range(n), k + 1))


def _divisor_matrix(w, n: int = 6, k: int = 3) -> list:
    """Matrix of v -> v ^ w for a k-vector w; its kernel is the divisor
    space of w.  Entries are signed coordinates of w, so the same matrix
    serves over Q, Z and F_p."""
    rows = []
    for entries in _wedge_template(n, k):
        row = [0] * n
        for i, t, sign in entries:
            row[i] = sign * w[t]
        rows.append(row)
    return rows


def _wedge_rows(rows, n: int) -> list:
    """Coordinates of rows[0] ^ ... ^ rows[-1] on n coordinates: the
    maximal minors of the rows, by Laplace expansion along each row."""
    w = [1]
    for k, v in enumerate(reversed(rows)):
        w = [sum(sign * v[i] * w[t] for i, t, sign in entries)
             for entries in _wedge_template(n, k)]
    return w


def _contraction_rows(form, n: int, k: int) -> list:
    """Matrix of the contraction of k-vectors on n coordinates with a
    2-form, one row per (k-2)-subset: e_S goes to the sum over positions
    a < b of (-1)**(a+b+1) * form[S_a][S_b] * e_(S without S_a and S_b)."""
    subsets, rest_index = _subset_index(n, k), _subset_index(n, k - 2)
    rows = [[0] * len(subsets) for _ in rest_index]
    for s, t in subsets.items():
        for a, b in itertools.combinations(range(k), 2):
            rest = s[:a] + s[a + 1:b] + s[b + 1:]
            rows[rest_index[rest]][t] += (-1) ** (a + b + 1) * form[s[a]][s[b]]
    return rows


def wedge3_from_triples(terms):
    """Build 20 coordinates from (i, j, k, coefficient) terms with arbitrary
    index order; repeated triples accumulate with permutation signs."""
    co = [0] * 20
    for (i, j, k, val) in terms:
        if len({i, j, k}) != 3:
            raise ValueError("degenerate triple (%d,%d,%d)" % (i, j, k))
        key = tuple(sorted((i, j, k)))
        co[WEDGE3_INDEX[key]] += _perm_sign((i, j, k)) * _exact_scalar(val)
    return [_exact_scalar(v) for v in co]


def wedge3_divisor_space(co):
    """Basis of the space of vectors v with v wedge psi = 0 (the divisors)."""
    # the kernel does not change when psi is scaled to integer coordinates
    return nullspace(_divisor_matrix(_integer_row(co)[0]))


@functools.lru_cache(maxsize=None)
def _tr2_table() -> tuple:
    """The unnormalized quartic invariant tr(phi^2) as a polynomial in the
    20 coordinates, and its value on e0^e1^e2 + e3^e4^e5.

    phi is the double contraction operator: phi[k][i] wedges the tensor
    with e_i to a 4-form, passes it through the volume form to a
    2-covector and contracts that back into the tensor, so each entry is a
    quadratic form {(v1 <= v2): coefficient}.  The polynomial is
    {sorted 4-tuple of coordinates: integer coefficient}, zero terms
    dropped."""
    # four[i][S] = (coordinate, sign) of e_i ^ psi on the 4-subset S
    four = [{} for _ in range(6)]
    for s, entries in zip(itertools.combinations(range(6), 4),
                          _wedge_template(6, 3)):
        for i, t, sign in entries:
            four[i][s] = (t, sign)
    phi = [[{} for _ in range(6)] for _ in range(6)]
    for i in range(6):
        for e, f in itertools.combinations(range(6), 2):
            comp = tuple(x for x in range(6) if x not in (e, f))
            if comp not in four[i]:
                continue
            var2, s2 = four[i][comp]
            eps = _perm_sign((e, f) + comp)
            for k in range(6):
                if k in (e, f):
                    continue
                var1 = WEDGE3_INDEX[tuple(sorted((k, e, f)))]
                key = (min(var1, var2), max(var1, var2))
                entry = phi[k][i]
                entry[key] = entry.get(key, 0) + _perm_sign((k, e, f)) * eps * s2
    poly = {}
    for a in range(6):
        for b in range(6):
            for (v1, v2), c1 in phi[a][b].items():
                if not c1:
                    continue
                for (v3, v4), c2 in phi[b][a].items():
                    if not c2:
                        continue
                    key = tuple(sorted((v1, v2, v3, v4)))
                    poly[key] = poly.get(key, 0) + c1 * c2
    poly = {key: c for key, c in poly.items() if c}
    pin = [0] * 20
    pin[WEDGE3_INDEX[(0, 1, 2)]] = pin[WEDGE3_INDEX[(3, 4, 5)]] = 1
    norm = _tr2_value(poly, pin)
    if norm == 0:
        raise AssertionError("quartic normalizer vanished on the two-block element")
    return poly, norm


def _tr2_value(poly, x):
    """The quartic table at x: ints, Fractions or numpy columns."""
    return sum(c * x[a] * x[b] * x[e] * x[f] for (a, b, e, f), c in poly.items())


def wedge3_tr2_poly() -> dict:
    """The unnormalized quartic invariant as a dict {sorted variable tuple:
    integer coefficient} over the 20 lexicographic wedge coordinates.
    Zero-testing this polynomial is equivalent to zero-testing the
    normalized quartic."""
    return _tr2_table()[0]


def wedge3_quartic(co):
    """Quartic invariant normalized so the two-block element
    e0^e1^e2 + e3^e4^e5 takes value 1; vanishes on decomposable and
    divisible elements and is nonzero exactly on the open orbit.  It is
    homogeneous of degree 4, so it is evaluated on the coordinates with
    their denominators cleared."""
    poly, norm = _tr2_table()
    ints, den = _integer_row(_exact_scalar(v) for v in co)
    return _exact_div(_tr2_value(poly, ints), norm * den ** 4)


def wedge3_c6_rank(co) -> int:
    """Rank of a nonzero alternating 3-tensor on a 6-dimensional space:
    1 iff decomposable (3-dimensional divisor space); 2 iff the quartic
    invariant is nonzero (open orbit) or the tensor is divisible by a vector
    (nonzero divisor space); 3 otherwise."""
    co = [_exact_scalar(v) for v in co]
    if len(co) != 20:
        raise ValueError("alternating 3-tensor needs 20 coordinates")
    if all(v == 0 for v in co):
        raise ValueError("zero tensor has no rank")
    # both tests are blind to scaling, so they read the cleared coordinates
    ints = _integer_row(co)[0]
    divisors = 6 - int_rank(_divisor_matrix(ints))
    if divisors == 3:
        return 1
    return 2 if divisors or _tr2_value(wedge3_tr2_poly(), ints) else 3


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


# ---------------------------------------------------------------------------
# Symplectic rank-3 witness
# ---------------------------------------------------------------------------

@dataclass
class Sp6WitnessReport:
    """Exact verification record for the alternating 3-tensor witness inside
    the trace-free subrepresentation of the rank-3 symplectic group."""
    tensor: list
    form: list
    contraction_is_zero: bool
    summand_planes_isotropic: bool
    rank: int

    def as_dict(self):
        return {
            "tensor": [str(v) for v in self.tensor],
            "contraction_is_zero": self.contraction_is_zero,
            "summand_planes_isotropic": self.summand_planes_isotropic,
            "rank": self.rank,
        }


def sp6_wedge3_witness():
    """Build the three-term alternating tensor whose summand planes are
    isotropic for the pairing (1<->6, 2<->5, 3<->4), check that contracting
    with the symplectic form gives the zero vector (membership in the
    trace-free summand), and that its rank is 3.

    Returns (tensor coordinates, report).
    """
    # summands in 0-indexed labels: (0,1,3), (0,4,2), (5,1,2)
    terms = [(0, 1, 3, 1), (0, 4, 2, 1), (5, 1, 2, 1)]
    co = wedge3_from_triples(terms)
    form = mirror_symplectic_form(6)
    contraction_zero = all(sum(r * c for r, c in zip(row, co)) == 0
                           for row in _contraction_rows(form, 6, 3))
    planes = [(0, 1, 3), (0, 4, 2), (5, 1, 2)]
    isotropic = all(form[p[u]][p[v]] == 0
                    for p in planes
                    for u in range(3) for v in range(u + 1, 3))
    rk = wedge3_c6_rank(co)
    report = Sp6WitnessReport(
        tensor=co,
        form=form,
        contraction_is_zero=contraction_zero,
        summand_planes_isotropic=isotropic,
        rank=rk,
    )
    return co, report


# ---------------------------------------------------------------------------
# Tensor JSON plumbing
# ---------------------------------------------------------------------------

@dataclass
class Tensor:
    """Typed exact tensor: shape tag, dimension list, flat coordinates.

    Shapes and coordinate layouts (the keys of `SHAPES`, in this order):
      matrix    dims [m, n], m*n coords row-major
      symmetric dims [n], n*n coords row-major (symmetry validated)
      skew      dims [n], n*n coords row-major (skewness validated)
      coform    dims [n], n*n coords row-major, n even (skewness validated)
      wedge3    dims [6], 20 coords in lexicographic triple order
      spinor16  dims [16], 16 coords over even subsets ordered (size, lex)
      quadric   dims [n], n >= 2 coords (a vector; ambient split symmetric
                form)
      jordan    dims [27], 27 coords a, b, c, x0..x7, y0..y7, z0..z7 of an
                Albert element (`secant.jordan.AlbertElement.coords`)
    """
    shape: str
    dims: list
    coords: list


def _rows(t: Tensor) -> list:
    """The row-major coordinates as rows of length dims[-1]."""
    n = t.dims[-1]
    return [t.coords[i:i + n] for i in range(0, len(t.coords), n)]


def _coform_rank(t: Tensor):
    dec = coform_rank_decompose(_rows(t))
    return dec.rank, {"pairs": [[[str(v) for v in x], [str(v) for v in y]]
                                for x, y in dec.pairs]}


def _quadric_rank(t: Tensor):
    # the rank is the number of isotropic pieces
    pieces = quadric_split(t.coords)
    return len(pieces), {"isotropic_pieces": [[str(v) for v in piece] for piece in pieces]}


def _one(d) -> bool:
    return len(d) == 1


def _n_squared(d) -> int:
    return d[0] * d[0]


#: shape -> (dims rule, coordinate count of the dims, rank and certificate
#: of a Tensor).  A rank entry calls its public rank function by its module
#: name at call time, so a wrapper patched onto that name sees the call.
SHAPES = {
    "matrix": (lambda d: len(d) == 2, lambda d: d[0] * d[1],
               lambda t: (segre_rank(_rows(t)), None)),
    "symmetric": (_one, _n_squared, lambda t: (veronese2_rank(_rows(t)), None)),
    "skew": (_one, _n_squared, lambda t: (gr2_rank(_rows(t)), None)),
    "coform": (lambda d: len(d) == 1 and d[0] % 2 == 0, _n_squared,
               _coform_rank),
    "wedge3": (lambda d: d == [6], lambda d: 20,
               lambda t: (wedge3_c6_rank(t.coords), None)),
    "spinor16": (lambda d: d == [16], lambda d: 16,
                 lambda t: (spinor10_rank(t.coords), None)),
    "quadric": (lambda d: len(d) == 1 and d[0] >= 2, lambda d: d[0],
                _quadric_rank),
    "jordan": (lambda d: d == [27], lambda d: 27,
               lambda t: (jordan_rank(AlbertElement.from_coords(t.coords)), None)),
}


def tensor_to_json(t: Tensor) -> dict:
    return {"shape": t.shape, "dims": list(t.dims),
            "coords": [str(_exact_scalar(v)) for v in t.coords]}


def tensor_from_json(obj) -> Tensor:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object with shape/dims/coords")
    shape = obj.get("shape")
    if shape not in SHAPES:
        raise ValueError("unknown tensor shape %r (expected one of %s)"
                         % (shape, ", ".join(SHAPES)))
    dims = obj.get("dims")
    if not isinstance(dims, list) or not all(
            type(d) is int and d > 0 for d in dims):
        raise ValueError("dims must be a list of positive integers")
    raw = obj.get("coords")
    if not isinstance(raw, list):
        raise ValueError("coords must be a list of rational strings")
    coords = exact_rationals(raw)
    ok_dims, count, _ = SHAPES[shape]
    if not ok_dims(dims):
        raise ValueError("invalid dims %s for shape %s" % (dims, shape))
    if len(coords) != count(dims):
        raise ValueError("shape %s with dims %s needs %d coords, got %d"
                         % (shape, dims, count(dims), len(coords)))
    return Tensor(shape=shape, dims=dims, coords=coords)


def rank_of_tensor(t: Tensor):
    """Dispatch a Tensor to its rank function.  Returns (rank, certificate)
    where the certificate is a JSON-able object or None."""
    if t.shape not in SHAPES:
        raise ValueError("unknown tensor shape %r" % (t.shape,))
    return SHAPES[t.shape][2](t)


def albert_to_json(x: AlbertElement) -> dict:
    """The jordan tensor document of an element with rational coordinates."""
    co = x.coords()
    if any(type(v) is QuadExt for v in co):
        raise ValueError("cannot serialize coordinates outside the rationals")
    return tensor_to_json(Tensor("jordan", [27], co))


def albert_from_json(obj) -> AlbertElement:
    """The element of a jordan tensor document."""
    t = tensor_from_json(obj)
    if t.shape != "jordan":
        raise ValueError("expected shape 'jordan', got %r" % (t.shape,))
    return AlbertElement.from_coords(t.coords)
