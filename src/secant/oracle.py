"""Finite-field exhaustive ground truth.

Enumerates the cone points of each supported point family over a small prime
field, computes exact additive rank tables by breadth-first layering over
sums, and tests structural claims desk-scale: parabolic-reduction rank
preservation under coordinate projection, tangent-vector second-secant
membership, and the three-factor lower-bound tensor.

Epistemic discipline: only field-robust statements are asserted (matrix and
skew normal forms, the lift inequality for alternating 3-tensors, projection
equality on matrix/skew families); everything else is reported with a label,
because finite-field ranks may differ from characteristic-0 border ranks.

Vector encoding: little-endian base-p packing — coordinate i of a code c is
(c // p**i) % p.  ``encode_vec``/``decode_vec`` convert one vector;
``encode_array``/``decode_array`` convert an (N, d) digit array; the
family point generators, membership checks, closed forms, cone multiples,
tangent products and Levi projections below run on such arrays, the
kernels in blocks of ``_BLOCK`` rows; the Lie-algebra generators (all but
the spinors') act on the identity matrix, every unit vector at once.
Projective representatives are the lexicographically smallest scalar
multiples of each point, so tables are canonical and diffable.

Families: one registry, ``_FAMILIES``, holds a ``_Family`` record per kind
with its tag pattern, ambient dimension, cone-point generator (an (N, d)
int64 array), membership check and optional closed-form rank (both on
digit arrays; the closed form is checked by ``secant oracle --check``), Lie-algebra generators, whether
the tangent bound is asserted, and its Levi coordinate embedding.  The
records are built from shared pieces: tensor and matrix models (segre,
veronese2, sl3-adjoint), k-vectors with an optional isotropic codec (gr2,
gr3, lambda20, lambda30), the split quadric and the pure spinors.  Every
function below reads the record, so adding a family is adding one record.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import re
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .linalg import (
    _BLOCK,
    mirror_symplectic_form,
    modp_nullspace,
    modp_rank_batch,
    modp_row_reduce,
    split_symmetric_form,
)
from .ranks import (
    EVEN_SUBSETS,
    WEDGE3_INDEX,
    _contraction_rows,
    _divisor_matrix,
    _perm_sign,
    _subset_index,
    _tr2_value,
    _wedge_rows,
    _wedge_template,
    purity_quadric_table,
    wedge3_c6_rank,
    wedge3_tr2_poly,
)
from .rootsys import CapExceeded


class _Numpy:
    """Stands in for the numpy module until its first use, then replaces
    itself: a process that builds no rank table, such as `secant rank` or
    `secant classify`, does not import numpy (about 13 MiB resident and
    40 ms)."""

    def __getattr__(self, name):
        global np
        import numpy
        np = numpy
        return getattr(numpy, name)


np = _Numpy()

__all__ = [
    "AMBIENT_CAP",
    "THREADS_CAP",
    "PointSet",
    "RankTable",
    "LeviReport",
    "TangentReport",
    "family_dim",
    "enumerate_cone_points",
    "bfs_rank_table",
    "rank_table",
    "levi_projection_test",
    "tangent_probe",
    "wedge3_tr2_values",
    "wedge3_f2_report",
    "f2_pure_spinor_set",
    "encode_vec",
    "decode_vec",
    "encode_array",
    "decode_array",
    "split_quadric_value",
    "SubspaceCodec",
    "TABLE_VERSION",
]

#: Hard cap on ambient vector count (p ** dim).
AMBIENT_CAP = 1 << 24

#: Hard cap on BFS worker threads: a pool starts up to one per block.
THREADS_CAP = 64

TABLE_VERSION = 2

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

def split_quadric_value(v, p):
    """Halved split quadratic form: sum of products over hyperbolic pairs
    plus the square of the odd leftover coordinate.  Characteristic-safe:
    over F_2 the doubled Gram evaluation would vanish identically.  ``v``
    is one vector or an (N, n) array of them (then an (N,) array)."""
    v = np.asarray(v, dtype=np.int64)
    n = v.shape[-1]
    total = (v[..., 0:n - 1:2] * v[..., 1:n:2]).sum(axis=-1)
    if n % 2:
        total += v[..., n - 1] * v[..., n - 1]
    return total % p


class SubspaceCodec:
    """Coordinates on the solution space of linear constraints mod p.

    Subspace coordinates are the free columns of the constraint rref, in
    increasing column order; pivot coordinates are recovered by substitution.
    """

    def __init__(self, constraints, p, nfull):
        self.p = p
        self.nfull = nfull
        rows = [[v % p for v in row] for row in constraints]
        rref, pivots = modp_row_reduce(rows, p)
        self.rref = rref[:len(pivots)]
        self.pivots = list(pivots)
        pivot_set = set(pivots)
        self.free = [c for c in range(nfull) if c not in pivot_set]
        self.dim = len(self.free)

    def to_sub(self, full):
        return self.to_sub_array(np.array([full]))[0].tolist()

    def to_sub_array(self, full):
        """Subspace coordinates of an (N, nfull) array of full coordinates;
        ValueError if a row violates the constraints."""
        full = np.asarray(full, dtype=np.int64) % self.p
        if self.pivots and (full @ np.array(self.rref, dtype=np.int64).T
                            % self.p).any():
            raise ValueError("vector violates the subspace constraints")
        return full[:, self.free]

    def to_full(self, sub):
        return self.to_full_array(np.array([sub]))[0].tolist()

    def to_full_array(self, subs):
        """Full coordinates of an (N, dim) array of subspace coordinates."""
        full = np.zeros((len(subs), self.nfull), dtype=np.int64)
        full[:, self.free] = subs
        full[:, self.free] %= self.p
        if self.pivots:
            rref = np.array(self.rref, dtype=np.int64)[:, self.free]
            full[:, self.pivots] = -(full[:, self.free] @ rref.T) % self.p
        return full


@dataclass
class PointSet:
    """Cone points of one family over F_p: canonical projective
    representatives, plus the data needed to expand scalar multiples."""
    family: str
    prime: int
    dim: int
    reps: tuple

    def __len__(self):
        return len(self.reps)

    def cone_codes(self):
        """All nonzero scalar multiples of the representatives, encoded,
        as a sorted int64 array."""
        p = self.prime
        digits = decode_array(self.reps, p, self.dim)
        return np.unique(np.concatenate(
            [encode_array(digits * c % p, p) for c in range(1, p)]))


def encode_vec(vec, p) -> int:
    code = 0
    for v in reversed(vec):
        code = code * p + (v % p)
    return code


def decode_vec(code, p, d):
    out = []
    for _ in range(d):
        code, r = divmod(code, p)
        out.append(r)
    if code:
        raise ValueError("code out of range for dimension %d" % d)
    return out


def _place_values(p, d):
    return p ** np.arange(d, dtype=np.int64)


def encode_array(digits, p) -> np.ndarray:
    """Codes (int64) of the rows of an (N, d) array of digits in [0, p)."""
    digits = np.asarray(digits)
    return digits @ _place_values(p, digits.shape[-1])


def decode_array(codes, p, d) -> np.ndarray:
    """(N, d) uint8 digit array of N codes below p ** d."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 1)
    return (codes // _place_values(p, d) % p).astype(np.uint8)


def _code_blocks(start, stop):
    """Consecutive int64 code ranges of at most _BLOCK codes covering
    range(start, stop)."""
    for lo in range(start, stop, _BLOCK):
        yield np.arange(lo, min(lo + _BLOCK, stop), dtype=np.int64)


def _orbit_blocks(p, d):
    """The nonzero codes below p ** d by F_p^* orbit, in blocks of at most
    _BLOCK orbits.  Yields (digits, codes): the (B, d) uint8 digit array of
    B orbit representatives, codes in [p**k, 2 * p**k) whose leading digit
    is 1, and a list of (B,) code arrays: theirs, then those of their
    multiples by 2, ..., p - 1.  With t the most digits whose tuples fit a
    block, a piece of level k fixes the digits from s = min(t, k) up and
    copies its low s digits from one array of every t-tuple, so no digit is
    divided out of a code array; a block joins consecutive pieces."""
    t = 0
    while t < d - 1 and p ** (t + 1) <= _BLOCK:
        t += 1
    # every t-tuple, digit 0 fastest, and the low codes of its multiples by
    # 1, ..., p - 1; the first p**s rows are the s-tuples, then zeros
    low = np.indices((p,) * t, dtype=np.uint8).reshape(t, p ** t)[::-1].T
    scaled = [encode_array(low * c % p, p) for c in range(1, p)]

    def piece(s, top):
        digits = np.zeros((p ** s, d), dtype=np.uint8)
        digits[:, :s] = low[:p ** s, :s]
        digits[:, s:] = top
        return digits, [p ** s * encode_vec([c * x for x in top], p)
                        + codes[:p ** s]
                        for c, codes in enumerate(scaled, 1)]

    def join(group):
        digits, codes = zip(*group)
        return np.concatenate(digits), [np.concatenate(c) for c in zip(*codes)]

    group, size = [], 0
    for k in range(d):
        s = min(t, k)
        for block in range(p ** (k - s)):
            if size + p ** s > _BLOCK:
                yield join(group)
                group, size = [], 0
            group.append(piece(s, decode_vec(block, p, k - s) + [1]
                               + [0] * (d - k - 1)))
            size += p ** s
    yield join(group)


def _canonical_codes(vecs, p):
    """Code of the lexicographically smallest scalar multiple of each row
    of an (N, d) array: the smallest when read with coordinate 0 as the
    most significant digit."""
    best_key = best = None
    for c in range(1, p):
        mult = vecs * c % p
        key, code = encode_array(mult[:, ::-1], p), encode_array(mult, p)
        if best is None:
            best_key, best = key, code
        else:
            smaller = key < best_key
            best_key[smaller], best[smaller] = key[smaller], code[smaller]
    return best


def _tuples(m, p):
    """(p**m, m) int64 array of every m-tuple over range(p), in
    lexicographic order (one row, of width 0, when m is 0)."""
    return np.indices((p,) * m, dtype=np.int64).reshape(m, p ** m).T


def _proj_reps(n, p):
    """Projective representatives of F_p^n, first nonzero coordinate 1, as
    an (M, n) int64 array in lexicographic order."""
    blocks = []
    for lead in range(n):
        block = np.zeros((p ** (n - lead - 1), n), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1:] = _tuples(n - lead - 1, p)
        blocks.append(block)
    return np.concatenate(blocks)


def _subspaces(k, n, p):
    """All k-dimensional subspaces of F_p^n as rref bases, an (M, k, n)
    int64 array: one block per pivot pattern in lexicographic order, whose
    free cells (right of a row's pivot, outside the pivot columns) run over
    every fill in lexicographic order."""
    blocks = []
    for pivots in itertools.combinations(range(n), k):
        cells = np.array([(r, c) for r in range(k)
                          for c in range(pivots[r] + 1, n)
                          if c not in pivots], dtype=np.intp).reshape(-1, 2)
        fills = _tuples(len(cells), p)
        block = np.zeros((len(fills), k, n), dtype=np.int64)
        block[:, range(k), pivots] = 1
        block[:, cells[:, 0], cells[:, 1]] = fills
        blocks.append(block)
    return np.concatenate(blocks)


def _matrix_units(n):
    """(n*n, n, n) int64 array of the matrix units E_ab, a outermost."""
    return np.eye(n * n, dtype=np.int64).reshape(n * n, n, n)


def _model_generators(p, n, unfold, cells, act):
    """Generators of gl_n on a matrix model: for each matrix unit E, the
    matrix of x -> act(E, unfold(x)) mod p read on the cells, all x at once."""
    units = unfold(np.eye(len(cells), dtype=np.int64)).astype(np.int64)
    rows, cols = np.array(cells).T
    return [(act(e, units)[:, rows, cols].T % p).tolist()
            for e in _matrix_units(n)]


def _form_algebra_basis(form, p):
    """Basis of {S : S^T F + F S = 0} mod p (symplectic/orthogonal type)."""
    form = np.asarray(form, dtype=np.int64)
    n = len(form)
    eye = np.eye(n, dtype=np.int64)
    # (S^T F + F S)[a][b] = sum_k S[k][a] F[k][b] + F[a][k] S[k][b], so row
    # (a, b) has F[k][b] at column (k, a) and F[a][k] at column (k, b)
    rows = (np.einsum("ca,kb->abkc", eye, form)
            + np.einsum("cb,ak->abkc", eye, form)).reshape(n * n, n * n) % p
    return np.array(modp_nullspace(rows.tolist(), p),
                    dtype=np.int64).reshape(-1, n, n).tolist()


# ---------------------------------------------------------------------------
# Tensor and matrix models: segre, veronese2, sl3-adjoint
# ---------------------------------------------------------------------------

def _segre_points(fam, p):
    # outer products of one representative per factor, the first factor's
    # outermost, flattened row-major
    points = np.ones((1, 1), dtype=np.int64)
    for size in fam["sizes"]:
        reps = _proj_reps(size, p)
        points = (points[:, None, :, None] * reps[None, :, None, :]).reshape(
            len(points) * len(reps), -1) % p
    return points


def _flattenings(vecs, sizes, axis):
    """(N, sizes[axis], rest) array of the flattenings of flat row-major
    tensors along one axis."""
    tensors = np.asarray(vecs).reshape(-1, *sizes)
    return np.moveaxis(tensors, axis + 1, 1).reshape(
        len(tensors), sizes[axis], -1)


def _segre_member(fam, p):
    # rank one along every axis but the last forces it along the last
    sizes = fam["sizes"]

    def member(reps):
        ok = np.ones(len(reps), dtype=bool)
        for axis in range(len(sizes) - 1):
            ok &= modp_rank_batch(_flattenings(reps, sizes, axis), p) == 1
        return ok
    return member


def _segre_generators(fam, p):
    """gl of each factor acting on that factor of flat row-major tensors."""
    sizes = fam["sizes"]
    d = math.prod(sizes)
    units = np.eye(d, dtype=np.int64).reshape(d, *sizes)
    return [(np.moveaxis(np.tensordot(units, e, axes=([axis + 1], [1])),
                         -1, axis + 1).reshape(d, d).T % p).tolist()
            for axis, size in enumerate(sizes) for e in _matrix_units(size)]


def _matrix_rank(fam, p):
    return lambda vecs: modp_rank_batch(_flattenings(vecs, fam["sizes"], 0), p)


def _segre_embedding(big, sub):
    (bm, bn), (sm, sn) = big["sizes"], sub["sizes"]
    if sm > bm or sn > bn:
        raise ValueError("sub factors exceed big factors")
    return [i * bn + j for i in range(sm) for j in range(sn)]


def _sym_cells(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _veronese_points(fam, p):
    rows, cols = np.array(_sym_cells(fam["n"])).T
    v = _proj_reps(fam["n"], p)
    return v[:, rows] * v[:, cols] % p


def _cells_unfold(vecs, n, cells, mirror):
    """(N, n, n) int16 array of the matrices whose cells (i, j) hold the
    coordinates of the rows of ``vecs``, and whose cells (j, i) hold the
    same (mirror=1) or their negatives (mirror=-1).  It is a view of an
    entry-major (n, n, N) array: each cell is filled by one copy of N
    coordinates, the layout ``modp_rank_batch`` eliminates in."""
    vecs = np.asarray(vecs, dtype=np.int16).reshape(-1, len(cells)).T
    rows, cols = np.array(cells).T
    out = np.zeros((n, n, vecs.shape[1]), dtype=np.int16)
    out[cols, rows] = mirror * vecs
    out[rows, cols] = vecs
    return out.transpose(2, 0, 1)


def _veronese_member(fam, p):
    n, cells = fam["n"], _sym_cells(fam["n"])
    return lambda reps: modp_rank_batch(_cells_unfold(reps, n, cells, 1),
                                        p) == 1


def _veronese_generators(fam, p):
    """gl_n acting on symmetric matrices by S -> E S + S E^T, read on the
    upper-triangle cells; a point v v^T goes to (Ev) v^T + v (Ev)^T, the
    derivative of the group action v v^T -> (gv)(gv)^T."""
    n, cells = fam["n"], _sym_cells(fam["n"])
    return _model_generators(p, n, lambda x: _cells_unfold(x, n, cells, 1),
                             cells, lambda e, a: e @ a + a @ e.T)


#: sl3 coordinates: every entry but the last diagonal one, which is minus
#: the trace of the others.
_SL3_CELLS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def _sl3_unfold_array(vecs):
    mats = np.zeros((len(vecs), 3, 3), dtype=np.int16)
    rows, cols = np.array(_SL3_CELLS).T
    mats[:, rows, cols] = vecs
    mats[:, 2, 2] = -mats[:, 0, 0] - mats[:, 1, 1]
    return mats


def _sl3_points(fam, p):
    # the traceless rank-one matrices u v^T, u outermost
    reps = _proj_reps(3, p)
    u = np.repeat(reps, len(reps), axis=0)
    v = np.tile(reps, (len(reps), 1))
    keep = (u * v).sum(axis=1) % p == 0
    rows, cols = np.array(_SL3_CELLS).T
    return u[keep][:, rows] * v[keep][:, cols] % p


def _sl3_generators(fam, p):
    return _model_generators(p, 3, _sl3_unfold_array, _SL3_CELLS,
                             lambda e, x: e @ x - x @ e)


# ---------------------------------------------------------------------------
# k-vectors: gr2, gr3 and their isotropic parts lambda20, lambda30
# ---------------------------------------------------------------------------

def _wedge_dim(k, isotropic, fam):
    n = fam["n"]
    return math.comb(n, k) - (math.comb(n, k - 2) if isotropic else 0)


@functools.lru_cache(maxsize=None)
def _isotropic_codec(n, k, p):
    """Codec of the k-vectors on F_p^n whose contraction with the mirror
    symplectic form vanishes."""
    rows = _contraction_rows(mirror_symplectic_form(n), n, k)
    codec = SubspaceCodec(rows, p, math.comb(n, k))
    if codec.dim != math.comb(n, k) - len(rows):
        raise AssertionError("contraction constraints are dependent")
    return codec


def _template_arrays(n, k):
    """``ranks._wedge_template(n, k)`` as three (C(n, k+1), k+1) int64
    arrays: the vector index, the k-vector coordinate and the sign of each
    term of each row."""
    return np.array(_wedge_template(n, k), dtype=np.int64).transpose(2, 0, 1)


def _wedge_array(mats, n, p):
    """Coordinates mod p of the wedge of the rows of each matrix of an
    (M, k, n) array, as ``ranks._wedge_rows``: an (M, C(n, k)) array."""
    w = np.ones((len(mats), 1), dtype=np.int64)
    for k in range(mats.shape[1]):
        vec, coord, sign = _template_arrays(n, k)
        w = (sign * mats[:, -1 - k, vec] * w[:, coord]).sum(axis=-1) % p
    return w


def _wedge_points(k, isotropic, fam, p):
    n = fam["n"]
    mats = _subspaces(k, n, p)
    if isotropic:
        # the isotropic subspaces: the mirror form vanishes on each basis
        form = np.array(mirror_symplectic_form(n), dtype=np.int64)
        gram = mats @ form @ mats.transpose(0, 2, 1) % p
        mats = mats[~gram.any(axis=(1, 2))]
    full = _wedge_array(mats, n, p)
    return _isotropic_codec(n, k, p).to_sub_array(full) if isotropic else full


def _divisor_array(vecs, n, k):
    """(N, C(n, k+1), n) int16 array of the divisor matrices (v -> v ^ w,
    as ``ranks._divisor_matrix``) of the k-vectors in the rows of vecs."""
    vec, coord, sign = _template_arrays(n, k)
    vecs = np.asarray(vecs, dtype=np.int16)
    out = np.zeros((len(vecs), len(vec), n), dtype=np.int16)
    out[:, np.arange(len(vec))[:, None], vec] = (
        sign.astype(np.int16) * vecs[:, coord])
    return out


def _wedge_member(k, isotropic, fam, p):
    # a nonzero k-vector is decomposable iff its divisors span k dimensions,
    # that is iff its divisor matrix has rank n - k
    n = fam["n"]
    full = _isotropic_codec(n, k, p).to_full_array if isotropic else None
    return lambda reps: modp_rank_batch(_divisor_array(
        reps if full is None else full(reps), n, k), p) == n - k


def _derivation(e, n, k):
    """Matrix of an n x n matrix E acting on k-vectors as a derivation:
    x_1 ^ ... ^ x_k -> sum over i of x_1 ^ ... ^ E x_i ^ ... ^ x_k."""
    index = _subset_index(n, k)
    out = np.zeros((len(index), len(index)), dtype=np.int64)
    for s, t in index.items():
        for pos, i in enumerate(s):
            for m in range(n):
                if e[m][i] and (m == i or m not in s):
                    seq = s[:pos] + (m,) + s[pos + 1:]
                    out[index[tuple(sorted(seq))], t] += (
                        _perm_sign(seq) * e[m][i])
    return out


def _wedge_generators(k, isotropic, fam, p):
    n = fam["n"]
    if not isotropic:
        return [(_derivation(e, n, k) % p).tolist() for e in _matrix_units(n)]
    # the derivations of the form's algebra, read on the codec's units
    codec = _isotropic_codec(n, k, p)
    units = codec.to_full_array(np.eye(codec.dim, dtype=np.int64))
    return [codec.to_sub_array(units @ _derivation(s, n, k).T).T.tolist()
            for s in _form_algebra_basis(mirror_symplectic_form(n), p)]


def _half_skew_rank(fam, p):
    n = fam["n"]
    pairs = list(_subset_index(n, 2))
    return lambda vecs: modp_rank_batch(
        _cells_unfold(vecs, n, pairs, -1), p) // 2


def _gr2_embedding(big, sub):
    if sub["n"] > big["n"]:
        raise ValueError("sub dimension exceeds big dimension")
    index = _subset_index(big["n"], 2)
    return [index[pq] for pq in _subset_index(sub["n"], 2)]


# ---------------------------------------------------------------------------
# The split quadric and the pure spinors
# ---------------------------------------------------------------------------

def _quadric_points(fam, p):
    vecs = np.array(_proj_reps(fam["n"], p), dtype=np.int64)
    return vecs[split_quadric_value(vecs, p) == 0]


def _quadric_generators(fam, p):
    return _form_algebra_basis(split_symmetric_form(fam["n"]), p)


def f2_pure_spinor_set():
    """Pure even spinors over F_2, as a set of 16-bit codes, enumerated
    constructively: the exponential parametrization over the vacuum plus
    closure under the double Clifford flips e_I -> e_{I xor {i,j}}
    (products of two unit reflections, preserving the even half and the
    purity cone).

    The exponential cells are one (1024, 16) bit array, a row per skew
    omega over F_2 with coordinates 1, omega_ij and the Pfaffians of its
    4x4 minors (mod 2).  A flip is an involution of the basis labels, so
    it acts on a bit array as that permutation of its columns."""
    index = {s: t for t, s in enumerate(EVEN_SUBSETS)}
    pairs = tuple(itertools.combinations(range(5), 2))
    bits = np.arange(1 << len(pairs))[:, None] >> np.arange(len(pairs)) & 1
    w = dict(zip(pairs, bits.T))
    cells = np.zeros((len(bits), 16), dtype=np.int64)
    cells[:, index[()]] = 1
    for ij in pairs:
        cells[:, index[ij]] = w[ij]
    for a, b, c, d in itertools.combinations(range(5), 4):
        cells[:, index[a, b, c, d]] = (w[a, b] * w[c, d] + w[a, c] * w[b, d]
                                       + w[a, d] * w[b, c]) & 1
    flips = np.array([[index[tuple(sorted(set(s) ^ {i, j}))]
                       for s in EVEN_SUBSETS] for i, j in pairs])
    weights = 1 << np.arange(16)
    seen = np.zeros(1 << 16, dtype=bool)
    frontier = np.unique(cells @ weights)
    while len(frontier):
        seen[frontier] = True
        rows = frontier[:, None] >> np.arange(16) & 1
        moved = np.unique(rows[:, flips] @ weights)
        frontier = moved[~seen[moved]]
    return set(np.flatnonzero(seen).tolist())


def _spinor_points(fam, p):
    if p != 2:
        raise ValueError("spinor10 enumeration is supported over F_2 only")
    codes = np.array(sorted(f2_pure_spinor_set()), dtype=np.int64)
    return codes[:, None] >> np.arange(16) & 1


def _spinor_member(fam, p):
    quadrics = purity_quadric_table()

    def member(reps):
        reps = np.asarray(reps, dtype=np.int64)
        ok = np.ones(len(reps), dtype=bool)
        for quad in quadrics:
            ok &= sum(c * reps[:, a] * reps[:, b]
                      for (a, b), c in quad.items()) % p == 0
        return ok
    return member


def _spinor_generators(fam, p):
    """so10 acting on the even half-spinors: e_i ^ e_j, the contraction
    by both, and e_i contracted against e_j, as moves of the basis
    subsets (None where the basis element is killed)."""
    index = {frozenset(s): t for t, s in enumerate(EVEN_SUBSETS)}
    moves = []
    for i, j in itertools.combinations(range(5), 2):
        moves.append(lambda s, ij={i, j}: None if s & ij else s | ij)
        moves.append(lambda s, ij={i, j}: s - ij if ij <= s else None)
    for i in range(5):
        for j in range(5):
            moves.append(lambda s, i=i, j=j: (s - {j}) | {i}
                         if j in s and (i == j or i not in s) else None)
    gens = []
    for move in moves:
        g = [[0] * 16 for _ in range(16)]
        for t, s in enumerate(EVEN_SUBSETS):
            target = move(frozenset(s))
            if target is not None:
                g[index[target]][t] = 1
        gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """One point family.  ``params`` turns the integer groups of a tag
    matching ``pattern`` into the family's parameters (ValueError when out
    of range); every other function takes the parsed family dict ``fam``,
    and most the prime ``p``."""
    kind: str
    pattern: str
    params: Callable
    #: fam -> ambient coordinate dimension
    dim: Callable
    #: (fam, p) -> (N, d) int64 array of cone vectors; each is reduced to
    #: its canonical multiple
    points: Callable
    #: (fam, p) -> predicate on an (N, d) digit array of canonical
    #: representatives, an (N,) bool array
    member: Callable
    #: (fam, p) -> Lie-algebra action matrices on the ambient coordinates
    generators: Callable
    #: (label, (fam, p) -> ranks of an (N, d) digit array, an (N,) integer
    #: array), checked by --check
    closed_form: tuple | None = None
    #: tangent probes x + t.x have rank <= 2 over every field
    asserted: bool = False
    #: (big fam, sub fam) -> big coordinate of each sub coordinate
    embed: Callable | None = None


def _dimension(low, even=False):
    def params(n):
        if n < low or even and n % 2:
            raise ValueError("dimension %d is not supported: it must be %s"
                             "at least %d" % (n, "even and " if even else "",
                                              low))
        return {"n": n}
    return params


def _sizes(m, n):
    if m < 2 or n < 2:
        raise ValueError("segre factors need dimension at least 2")
    return {"sizes": (m, n)}


def _wedge_family(kind, pattern, params, k, isotropic, **extra):
    return _Family(
        kind, pattern, params,
        dim=functools.partial(_wedge_dim, k, isotropic),
        points=functools.partial(_wedge_points, k, isotropic),
        member=functools.partial(_wedge_member, k, isotropic),
        generators=functools.partial(_wedge_generators, k, isotropic),
        **extra)


def _segre_family(kind, pattern, params, **extra):
    return _Family(
        kind, pattern, params, dim=lambda fam: math.prod(fam["sizes"]),
        points=_segre_points, member=_segre_member,
        generators=_segre_generators, **extra)


_FAMILIES = (
    _segre_family("segre", r"segre-(\d+)x(\d+)", _sizes,
                  closed_form=("matrix rank", _matrix_rank), asserted=True,
                  embed=_segre_embedding),
    _segre_family("segre3", "segre-2x2x2", lambda: {"sizes": (2, 2, 2)}),
    _Family("veronese2", r"veronese2-(\d+)", _dimension(2),
            dim=lambda fam: math.comb(fam["n"] + 1, 2),
            points=_veronese_points, member=_veronese_member,
            generators=_veronese_generators),
    _wedge_family("gr2", r"gr2-(\d+)", _dimension(2), 2, False,
                  closed_form=("half the skew matrix rank", _half_skew_rank),
                  asserted=True, embed=_gr2_embedding),
    _wedge_family("gr3", "gr3-6", lambda: {"n": 6}, 3, False),
    _wedge_family("lambda20", r"lambda20-(\d+)", _dimension(4, even=True),
                  2, True),
    _wedge_family("lambda30", "lambda30-6", lambda: {"n": 6}, 3, True),
    _Family("quadric", r"quadric-(\d+)", _dimension(2),
            dim=lambda fam: fam["n"],
            points=_quadric_points,
            member=lambda fam, p: lambda reps: split_quadric_value(
                reps, p) == 0,
            generators=_quadric_generators),
    _Family("spinor10", "spinor10", lambda: {}, dim=lambda fam: 16,
            points=_spinor_points, member=_spinor_member,
            generators=_spinor_generators),
    _Family("sl3adj", "sl3-adjoint", lambda: {}, dim=lambda fam: 8,
            points=_sl3_points,
            member=lambda fam, p: lambda reps: modp_rank_batch(
                _sl3_unfold_array(reps), p) == 1,
            generators=_sl3_generators),
)


def _family(name):
    """(record, parsed family dict) of a family tag."""
    if not isinstance(name, str):
        raise ValueError("family must be a string")
    for rec in _FAMILIES:
        match = re.fullmatch(rec.pattern, name)
        if match:
            fam = rec.params(*(int(g) for g in match.groups()))
            return rec, {"kind": rec.kind, **fam}
    raise ValueError("unknown family %r" % name)


def family_dim(name: str) -> int:
    """Ambient coordinate dimension of a family."""
    rec, fam = _family(name)
    return rec.dim(fam)


def _closed_form(family, p):
    """(label, ranks over F_p of an (N, d) digit array) for a family with
    a closed-form rank, else None."""
    rec, fam = _family(family)
    if rec.closed_form is None:
        return None
    label, rank_of = rec.closed_form
    return label, rank_of(fam, p)


def _check_cap(p, d):
    # past the cap's bit length even 2**d is over it, so p**d is never
    # taken for a huge d
    if d > AMBIENT_CAP.bit_length() or p ** d > AMBIENT_CAP:
        raise CapExceeded(
            "family instance has %d^%d ambient vectors, over the %d cap"
            % (p, d, AMBIENT_CAP))


def _check_threads(threads):
    if threads < 1:
        raise ValueError("threads must be at least 1, got %d" % threads)
    if threads > THREADS_CAP:
        raise CapExceeded("%d threads requested, over the %d cap"
                          % (threads, THREADS_CAP))


def enumerate_cone_points(family: str, p: int) -> PointSet:
    """Enumerate canonical projective representatives of a family's cone
    over F_p and check the defining equations on every point."""
    if p not in _SMALL_PRIMES:
        raise ValueError("prime %r not supported (need a prime <= 13)" % p)
    rec, fam = _family(family)
    d = rec.dim(fam)
    _check_cap(p, d)
    codes = np.unique(_canonical_codes(rec.points(fam, p), p))
    codes = codes[codes != 0]
    reps = decode_array(codes, p, d)
    ok = rec.member(fam, p)(reps)
    if not ok.all():
        raise AssertionError("%s point %r fails the membership check"
                             % (family, tuple(reps[np.argmin(ok)].tolist())))
    return PointSet(family=family, prime=p, dim=d, reps=tuple(codes.tolist()))


# ---------------------------------------------------------------------------
# BFS rank tables
# ---------------------------------------------------------------------------

@dataclass
class RankTable:
    """Exact additive rank of every vector: ranks[code] is the minimal
    number of cone points summing to the vector (0 for the zero vector)."""
    family: str
    prime: int
    dim: int
    ranks: np.ndarray
    points: PointSet

    def rank_of_code(self, code: int) -> int:
        return int(self.ranks[code])

    def rank_of_vec(self, vec) -> int:
        return int(self.ranks[encode_vec(list(vec), self.prime)])

    @property
    def max_rank(self) -> int:
        return int(self.ranks.max())

    def layer_counts(self) -> dict:
        """{rank: number of codes} for every rank present, in rank order."""
        # one comparison per rank: np.unique would sort a copy of the table,
        # and np.bincount widen a copy to intp (8 bytes per code)
        counts = (int(np.count_nonzero(self.ranks == r))
                  for r in range(self.max_rank + 1))
        return {r: c for r, c in enumerate(counts) if c}

    def header(self) -> dict:
        return {
            "version": TABLE_VERSION,
            "family": self.family,
            "prime": self.prime,
            "dim": self.dim,
            "encoding": "little-endian base-p digits; coordinate i of code c "
                        "is (c // p**i) % p; one rank byte per code",
            "points": len(self.points.reps),
            "reps": list(self.points.reps),
            "counts": {str(k): v for k, v in self.layer_counts().items()},
        }

    def save(self, stem: str) -> None:
        """Write ``stem.bin`` (the rank bytes) and then ``stem.json`` (the
        header with their sha256), each through a temporary file in the
        same directory that is renamed into place."""
        data = self.ranks.astype(np.uint8).tobytes()
        head = dict(self.header(), sha256=_sha256(data))
        _write_atomic(stem + ".bin", data)
        _write_atomic(stem + ".json", json.dumps(
            head, indent=1, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, stem: str) -> "RankTable":
        """Read a table written by ``save``; ValueError if the header is
        not an object with the fields ``save`` writes, if its version,
        length, sha256 or layer counts do not match the rank bytes, or if
        its point count or a representative is not that of a point set
        over the header's space."""
        with open(stem + ".json", "r", encoding="utf-8") as fh:
            head = json.load(fh)
        if not isinstance(head, dict):
            raise ValueError("cache header is not a JSON object")
        if head.get("version") != TABLE_VERSION:
            raise ValueError("cache version mismatch")
        for key, kind in _HEADER_FIELDS:
            if type(head.get(key)) is not kind:
                raise ValueError("cache header field %r is missing or not "
                                 "of type %s" % (key, kind.__name__))
        if any(type(code) is not int for code in head["reps"]):
            raise ValueError("cache header reps are not all integers")
        # read straight into the rank array: no bytes object beside it
        with open(stem + ".bin", "rb") as fh:
            ranks = np.fromfile(fh, dtype=np.uint8)
        p, d = head["prime"], head["dim"]
        if d > AMBIENT_CAP.bit_length() or len(ranks) != p ** d:
            raise ValueError("cache length mismatch")
        if head["points"] != len(head["reps"]):
            raise ValueError("cache point count mismatch")
        if not all(0 < code < len(ranks) for code in head["reps"]):
            raise ValueError("cache header rep outside range(1, p**d)")
        if _sha256(ranks) != head.get("sha256"):
            raise ValueError("cache checksum mismatch")
        pts = PointSet(family=head["family"], prime=head["prime"],
                       dim=head["dim"], reps=tuple(head["reps"]))
        table = cls(family=head["family"], prime=head["prime"],
                    dim=head["dim"], ranks=ranks, points=pts)
        counts = {str(r): c for r, c in table.layer_counts().items()}
        if head["counts"] != counts:
            raise ValueError("cache layer counts mismatch")
        return table


#: (key, type) of every header field that ``load`` reads.
_HEADER_FIELDS = (("family", str), ("prime", int), ("dim", int),
                  ("points", int), ("reps", list), ("counts", dict),
                  ("sha256", str))


def _sha256(data) -> str:
    """Hex sha256 of a bytes-like object (bytes or a contiguous array)."""
    # imported here: hashlib loads OpenSSL, about 3 MiB resident, which
    # only the table cache needs
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it
    into place, so a reader sees the old file or the new one."""
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_UNSEEN = 255
# _BLOCK (from linalg) codes per block are also the BFS's unit of work and
# of its thread split.
#: A layer pulls once |frontier| * _PULL_RATIO exceeds the unseen count.
_PULL_RATIO = 14
#: A pull drops the codes it has placed from its block once this many
#: cone points have run since it last looked.
_COMPACT_EVERY = 8


def _digit_add_rows(halves, p, k, scale):
    """One int32 row per half a: row[x] is scale times the k-digit base-p
    code of the digitwise sum a + x mod p, for x in range(p**k).

    With l = k // 2, the sum of a and x = xh * p**l + xl is the sum of their
    high k - l digits times p**l plus the sum of their low l digits, so a
    row is the outer sum of a high row over xh and a low row over xl, each
    made the same way for the distinct high and low halves."""
    halves = np.asarray(halves, dtype=np.int32)
    if k <= 1:
        return (halves[:, None] + np.arange(p ** k, dtype=np.int32)) \
            % p ** k * scale
    base = p ** (k // 2)
    hi_keys, hi_of = np.unique(halves // base, return_inverse=True)
    lo_keys, lo_of = np.unique(halves % base, return_inverse=True)
    hi = _digit_add_rows(hi_keys, p, k - k // 2, scale * base)[hi_of]
    lo = _digit_add_rows(lo_keys, p, k // 2, scale)[lo_of]
    return (hi[:, :, None] + lo[:, None, :]).reshape(len(halves), p ** k)


def _digit_scale_rows(p, k, scale):
    """One int32 row per scalar l in 2..p-1: row[x] is scale times the
    k-digit base-p code of l * x mod p, digitwise, for x in range(p**k)."""
    digits = decode_array(np.arange(p ** k), p, k).astype(np.int64)
    return np.array([encode_array(digits * l % p, p) * scale
                     for l in range(2, p)], dtype=np.int32)


def bfs_rank_table(points: PointSet, threads: int = 1) -> RankTable:
    """Layered breadth-first rank table: layer r is (layer r-1 + cone)
    minus everything already assigned; partitions the whole space.

    The cone is closed under scalars, so rank(l * v) = rank(v): the BFS
    expands one code per F_p^* orbit, its representative, and writes the
    rank of each code it places to the other p - 2 multiples as well.  The
    representatives are the codes whose leading base-p digit is 1, the
    intervals [p**k, 2 * p**k) for k < d; over F_2 that is every nonzero
    code.

    Each layer runs in one of two directions (direction-optimising BFS,
    Beamer, Asanovic and Patterson, SC 2012).  While the frontier (layer
    r-1) is small it pushes: f + s gets rank r for every representative f
    of the frontier and cone point s with f + s unseen.  That reaches every
    orbit of layer r: u = l * f + s gives u / l = f + s / l.  Once
    |frontier| * 14 exceeds the number of unseen codes it pulls: an unseen
    representative u gets rank r if u - s has rank r-1 for some cone point
    s.  As -s runs over the cone as s does, a pull adds the same cone codes
    as a push.

    Blocks of at most 2^16 codes (frontier chunks when pushing, the unseen
    representatives of one window of 2^16 entries of ``ranks`` when
    pulling) are the unit of work: each makes its buffers once, and
    ``threads`` workers share the blocks of a layer.  A block sums its m
    live codes with a group of g = max(1, 2^16 // m) cone points per numpy
    call, a (g, m) array, so a small frontier, or the few codes a pull
    window has left, costs one call per group and not one per cone point.
    A pull drops the codes it has placed once 8 or more cone points have
    run since it last looked.

    Over F_2, f + s is f ^ s.  Over an odd prime, digitwise addition of s
    is two lookups in half-word rows: with h = d // 2, row lo maps the low
    h base-p digits of f to those of f + s, row hi the high d - h digits
    (times p**h), so f + s = hi[f // p**h] + lo[f % p**h].  There is one
    row per distinct half of a cone point; a group reads its rows as flat
    takes at the row offsets of its cone points plus the halves of f.  The
    multiples of a placed code c are read the same way, from one pair of
    digit-scaling rows per scalar l: l * c = hi_l[c // p**h] + lo_l[c % p**h].
    """
    _check_threads(threads)
    p, d = points.prime, points.dim
    _check_cap(p, d)
    size = p ** d
    cone = points.cone_codes()
    if len(cone) == 0:
        raise ValueError("empty point set")
    ranks = np.full(size, _UNSEEN, dtype=np.uint8)
    ranks[0] = 0
    ranks[cone] = 1
    # the orbit representatives, as code intervals; over F_2 they are the
    # adjacent intervals that make up [1, 2**d)
    spans = [(1, size)] if p == 2 else [(p ** k, 2 * p ** k)
                                        for k in range(d)]
    scalers = []
    if p != 2:
        half = p ** (d // 2)
        lo_keys, lo_of = np.unique(cone % half, return_inverse=True)
        hi_keys, hi_of = np.unique(cone // half, return_inverse=True)
        lo_rows = _digit_add_rows(lo_keys, p, d // 2, 1)
        hi_rows = _digit_add_rows(hi_keys, p, d - d // 2, half)
        # flat tables and the offset of each cone point's row in them
        flat = (hi_rows.ravel(), lo_rows.ravel())
        offsets = (hi_of.astype(np.intp)[:, None] * hi_rows.shape[1],
                   lo_of.astype(np.intp)[:, None] * half)
        scalers = list(zip(_digit_scale_rows(p, d - d // 2, half),
                           _digit_scale_rows(p, d // 2, 1)))

    def place_multiples(r, hi, lo):
        # rank r for the other multiples of the codes with halves hi (not
        # scaled) and lo
        for hi_l, lo_l in scalers:
            mult = hi_l[hi]
            mult += lo_l[lo]
            ranks[mult] = r

    def expand(r, pull, block):
        # a sum is read from keys: the codes over F_2, their high and low
        # halves over an odd prime; every index below is in range by
        # construction, so the takes use mode="clip", which writes
        # straight into ``out``
        n = len(block)
        if not n:
            return
        keys = [block] if p == 2 else list(np.divmod(block, half))
        room = min(_BLOCK, len(cone) * n)
        cand = np.empty(room, dtype=np.intp)
        parts = np.empty((2, room), dtype=np.int32)
        seen = np.empty(room, dtype=np.uint8)
        hit = np.empty(room, dtype=bool)
        found = np.zeros(n, dtype=bool)
        want = r - 1 if pull else _UNSEEN
        k = since = 0
        while k < len(cone):
            m = len(keys[0])
            g = min(max(1, _BLOCK // m), len(cone) - k)
            c, a, b, sn, ht = (buf[:g * m].reshape(g, m) for buf in (
                cand, parts[0], parts[1], seen, hit))
            if p == 2:
                np.bitwise_xor(cone[k:k + g, None], keys[0], out=c)
            elif g == 1:
                np.take(hi_rows[hi_of[k]], keys[0], out=a[0], mode="clip")
                np.take(lo_rows[lo_of[k]], keys[1], out=b[0], mode="clip")
                np.add(a, b, out=c)
            else:
                # c holds each flat index until the sum overwrites it
                for out, table, offset, key in zip((a, b), flat, offsets,
                                                   keys):
                    np.add(offset[k:k + g], key, out=c)
                    np.take(table, c, out=out, mode="clip")
                np.add(a, b, out=c)
            np.take(ranks, c, out=sn, mode="clip")
            np.equal(sn, want, out=ht)
            k += g
            if not pull:
                ranks[c[ht]] = r
                if scalers:
                    hi = a[ht]
                    hi //= half
                    place_multiples(r, hi, b[ht])
                continue
            done = found[:m]
            done |= ht[0] if g == 1 else ht.any(axis=0)
            since += g
            if since < _COMPACT_EVERY and k < len(cone):
                continue
            since = 0
            if not done.any():
                continue
            if p == 2:
                ranks[keys[0][done]] = r
            else:
                hi, lo = (key[done] for key in keys)
                ranks[hi * half + lo] = r
                place_multiples(r, hi, lo)
            keep = ~done
            keys = [key[keep] for key in keys]
            if not len(keys[0]):
                return
            found[:len(keys[0])] = False

    def scan(value, start=0, stop=size):
        # the representatives in [start, stop) whose rank byte is value
        pieces = []
        for lo, hi in spans:
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                pieces.append(np.flatnonzero(ranks[lo:hi] == value))
                pieces[-1] += lo
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    unseen = size - 1 - len(cone)
    placed = len(cone)
    r = 1
    while unseen:
        r += 1
        if r > 120:
            raise AssertionError("rank layering failed to terminate")
        pull = placed * _PULL_RATIO > unseen
        if pull:
            # the windows of _BLOCK codes that hold representatives
            starts = sorted({w for lo, hi in spans
                             for w in range(lo - lo % _BLOCK, hi, _BLOCK)})

            def run(start):
                expand(r, pull, scan(_UNSEEN, start, start + _BLOCK))
        else:
            frontier = scan(r - 1)
            starts = range(0, len(frontier), _BLOCK)

            def run(start):
                expand(r, pull, frontier[start:start + _BLOCK])

        if threads > 1 and len(starts) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run, starts))
        else:
            for start in starts:
                run(start)
        placed = int(np.count_nonzero(ranks == r))
        if not placed:
            raise AssertionError("point set does not span the ambient space")
        unseen -= placed
    return RankTable(family=points.family, prime=p, dim=d,
                     ranks=ranks, points=points)


def _cache_stem(family, p):
    """Path stem of the cached table, or None: nothing is cached without
    SECANT_CACHE_DIR or when it cannot be made a directory (a file)."""
    root = os.environ.get("SECANT_CACHE_DIR")
    if not root:
        return None
    try:
        os.makedirs(root, exist_ok=True)
    except OSError:
        return None
    return os.path.join(root, "oracle_%s_p%d_v%d" % (family, p, TABLE_VERSION))


def rank_table(family: str, p: int, threads: int = 1) -> RankTable:
    """Enumerate + BFS, cached on disk when SECANT_CACHE_DIR is set."""
    _check_threads(threads)
    stem = _cache_stem(family, p)
    if stem is not None and os.path.exists(stem + ".json"):
        try:
            table = RankTable.load(stem)
            if table.family == family and table.prime == p:
                return table
        except (ValueError, OSError):
            pass  # corrupt or stale cache: recompute
    table = bfs_rank_table(enumerate_cone_points(family, p), threads=threads)
    if stem is not None:
        try:
            table.save(stem)
        except OSError:
            pass
    return table


# ---------------------------------------------------------------------------
# Parabolic-projection rank preservation
# ---------------------------------------------------------------------------

@dataclass
class LeviReport:
    big_family: str
    sub_family: str
    prime: int
    vectors_checked: int
    rank_equal: bool
    points_projected: int
    projection_contained: bool


def levi_projection_test(big: str, sub: str, p: int) -> LeviReport:
    """Exhaustively verify that additive rank computed against the big cone
    equals rank against the small cone on the coordinate subspace, and that
    projecting any big cone point lands in the small cone or at zero."""
    (big_rec, big_fam), (sub_rec, sub_fam) = _family(big), _family(sub)
    if big_rec is not sub_rec or big_rec.embed is None:
        raise ValueError("unsupported projection pair %s -> %s" % (big, sub))
    # sub coordinate t sits at big coordinate emb[t]
    emb = big_rec.embed(big_fam, sub_fam)
    big_table = rank_table(big, p)
    sub_table = rank_table(sub, p)
    bd, sd = big_table.dim, sub_table.dim

    # big code of each sub code: its digits at the big place values
    places = p ** np.array(emb, dtype=np.int64)
    equal = all(np.array_equal(
        big_table.ranks[decode_array(codes, p, sd) @ places],
        sub_table.ranks[codes]) for codes in _code_blocks(1, p ** sd))

    proj = decode_array(big_table.points.cone_codes(), p, bd)[:, emb]
    hit = proj.any(axis=1)
    inside = np.isin(encode_array(proj[hit], p),
                     sub_table.points.cone_codes())
    contained = bool(inside.all())
    # projections counted up to the first one outside the small cone
    projected = len(inside) if contained else int(np.argmin(inside)) + 1
    return LeviReport(big_family=big, sub_family=sub, prime=p,
                      vectors_checked=p ** sd - 1, rank_equal=equal,
                      points_projected=projected,
                      projection_contained=contained)


# ---------------------------------------------------------------------------
# Tangent probes
# ---------------------------------------------------------------------------

@dataclass
class TangentReport:
    family: str
    prime: int
    probes: int
    histogram: dict
    max_rank: int
    asserted: bool
    label: str


def _composite_batch(units, p, family):
    """24 deterministic dense algebra elements: seeded mod-p combinations of
    the basis generators.  Rank-1 basis elements alone probe degenerately
    (x + t.x stays a point for wedge families because the quadratic terms
    of (1+t) vanish), so dense elements are needed to expose tangent
    vectors of higher additive rank."""
    import random as _random
    rng = _random.Random("tangent:%s:%d" % (family, p))
    if not units:
        return []
    coeffs = np.array([[rng.randrange(p) for _ in units] for _ in range(24)],
                      dtype=np.int64)
    units = np.array(units, dtype=np.int64)
    return (np.tensordot(coeffs, units, axes=1) % p).tolist()


def tangent_probe(family: str, p: int) -> TangentReport:
    """BFS rank of x + t.x over all cone representatives x and algebra
    generators t.  Asserts rank <= 2 for matrix/skew families where the
    bound is field-independent; reports (without asserting) elsewhere."""
    table = rank_table(family, p)
    rec, fam = _family(family)
    gens = rec.generators(fam, p)
    gens = np.array(gens + _composite_batch(gens, p, family), dtype=np.int32)
    d = table.dim
    # x + t.x = (1 + t) x for every t at once: column block t of ``ops``
    # holds the transpose of 1 + t, so row x @ ops lists every probe of x
    ops = (gens + np.eye(d, dtype=np.int32)).reshape(-1, d).T
    counts = np.zeros(_UNSEEN + 1, dtype=np.int64)
    step = max(1, _BLOCK // len(gens))
    reps = np.array(table.points.reps, dtype=np.int64)
    for lo in range(0, len(reps), step):
        x = decode_array(reps[lo:lo + step], p, d).astype(np.int32)
        probe = (x @ ops).reshape(-1, d) % p
        counts += np.bincount(table.ranks[encode_array(probe, p)],
                              minlength=len(counts))
    hist = {r: int(c) for r, c in enumerate(counts) if c}
    probes = len(reps) * len(gens)
    mx = max(hist)
    if rec.asserted and mx > 2:
        raise AssertionError(
            "tangent probe exceeded rank 2 on a field-independent family")
    label = ("asserted: field-independent rank <= 2 bound"
             if rec.asserted else
             "report-only: finite-field rank may exceed the "
             "characteristic-0 border rank")
    return TangentReport(family=family, prime=p, probes=probes,
                         histogram=hist, max_rank=mx, asserted=rec.asserted,
                         label=label)


# ---------------------------------------------------------------------------
# Alternating 3-tensor lift comparison over F_2
# ---------------------------------------------------------------------------

#: The largest B with S * B**4 < 2**63, S = 1320 the sum of the absolute
#: coefficients of ``wedge3_tr2_poly()``: entries up to B keep int64 exact.
_TR2_ENTRY_CAP = 9142


def wedge3_tr2_values(coords) -> np.ndarray:
    """Exact values of the unnormalized quartic on an (N, 20) integer
    coordinate array, vectorized in int64; ValueError on an entry above
    ``_TR2_ENTRY_CAP`` in absolute value, where int64 could overflow."""
    coords = np.asarray(coords, dtype=np.int64)
    if np.abs(coords).max(initial=0) > _TR2_ENTRY_CAP:
        raise ValueError("entries above %d in absolute value" % _TR2_ENTRY_CAP)
    poly = wedge3_tr2_poly()
    out = np.zeros(len(coords), dtype=np.int64)
    step = 1 << 16
    for lo in range(0, len(coords), step):
        # one contiguous array per coordinate, evaluated like scalars
        columns = np.ascontiguousarray(coords[lo:lo + step].T)
        out[lo:lo + step] = _tr2_value(poly, columns)
    return out


#: A prime above the Hadamard bound of the minors that ``_divisor_ranks``
#: meets.
_HADAMARD_PRIME = 1_000_003


def _divisor_ranks(vecs) -> np.ndarray:
    """Exact ranks over Q of the divisor matrices of the integer 3-vectors on
    6 coordinates in the rows of vecs, whose entries are at most 4 in
    absolute value.

    An r x r minor of such a 15 x 6 matrix has rows of at most 6 entries of
    absolute value at most 4, so by Hadamard's inequality it is at most
    (4 sqrt 6)^r <= (4 sqrt 6)^6 = 884,736 in absolute value, below
    ``_HADAMARD_PRIME``: it vanishes mod that prime only if it vanishes,
    and the rank mod the prime is the rank over Q."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, 20)
    if np.abs(vecs).max(initial=0) > 4:
        raise ValueError("divisor ranks need entries of absolute value <= 4")
    return modp_rank_batch(_divisor_array(vecs, 6, 3), _HADAMARD_PRIME)


def _gr3_point_lifts(table: "RankTable") -> tuple:
    """For every F_2 cone point (a decomposable alternating 3-tensor),
    recover its 3-plane mod 2 and wedge the 0/1 basis lifts over the
    integers.  Returns (codes array, signed integer coordinate array) where
    row r reduces to codes[r] mod 2."""
    codes = table.points.cone_codes()
    lifts = np.zeros((len(codes), 20), dtype=np.int8)
    for r, code in enumerate(codes):
        co = [(int(code) >> i) & 1 for i in range(20)]
        kernel = modp_nullspace(_divisor_matrix(co), 2)
        if len(kernel) != 3:
            raise AssertionError(
                "cone point %d has mod-2 divisor dimension %d, expected 3"
                % (code, len(kernel)))
        lift = _wedge_rows(kernel, 6)
        if [v % 2 for v in lift] != co:
            raise AssertionError("integer lift of point %d does not "
                                 "reduce to it mod 2" % code)
        lifts[r] = lift
    return codes, lifts


def wedge3_f2_report() -> dict:
    """Full comparison of the characteristic-0 rank criterion against the
    exhaustive F_2 BFS table on all 2^20 - 1 vectors.

    Comparison semantics: an F_2 decomposition with r summands lifts
    summand-wise to an integer tensor (congruent to the input mod 2) that is
    a sum of r integer decomposables, so the rank criterion must return at
    most r on that lifted tensor.  Lifting coordinates instead of
    decompositions proves nothing: the 0/1 coordinate lift of an
    F_2-decomposable tensor is usually NOT decomposable over the rationals
    (signs and even Pfaffians vanish mod 2), and this is checked empirically
    elsewhere rather than asserted away.

    Checks:
      * every cone point's plane-basis integer lift has criterion rank
        exactly 1 (equality on all decomposables);
      * every BFS rank-2 code's two-point lift avoids criterion rank 3: the
        unnormalized quartic is nonzero, or else the exact integer divisor
        space is nontrivial;
      * BFS rank-3 codes satisfy criterion <= 3 trivially (the criterion
        only takes values 1, 2, 3).

    The reverse containment {criterion = 1} subset of {BFS = 1} needs no
    search: a rational divisor space of dimension 3 reduces mod 2 to an F_2
    divisor space of dimension >= 3, which forces F_2-decomposability.
    """
    table = rank_table("gr3-6", 2)
    counts = table.layer_counts()
    report = {
        "layer_counts": {int(k): int(v) for k, v in counts.items()},
        "points": len(table.points.reps),
    }

    codes, lifts = _gr3_point_lifts(table)
    # decomposables: criterion equals 1 exactly on the plane-basis lift
    ok = True
    for r in range(len(codes)):
        if wedge3_c6_rank([int(x) for x in lifts[r]]) != 1:
            ok = False
            report["first_violation"] = int(codes[r])
            break
    report["decomposable_equality"] = ok
    if not ok:
        report["criterion_le_bfs"] = False
        return report

    # pair every rank-2 code with one two-point decomposition (XOR sweep)
    pa = np.full(1 << 20, -1, dtype=np.int32)
    pb = np.full(1 << 20, -1, dtype=np.int32)
    for i in range(len(codes)):
        x = codes[i] ^ codes[i + 1:]
        unset = pa[x] < 0
        idx = x[unset]
        pa[idx] = i
        pb[idx] = np.nonzero(unset)[0].astype(np.int32) + i + 1
    twos = np.flatnonzero(table.ranks == 2).astype(np.int64)
    if not (pa[twos] >= 0).all():
        raise AssertionError("a BFS rank-2 code is not a sum of two cone "
                             "points — table corrupt")
    two_lifts = (lifts[pa[twos]].astype(np.int16)
                 + lifts[pb[twos]].astype(np.int16))
    jvals = wedge3_tr2_values(two_lifts)
    need_divisor = np.flatnonzero(jvals == 0)
    report["rank2_count"] = int(len(twos))
    report["rank2_quartic_nonzero"] = int(len(twos) - len(need_divisor))
    report["rank2_divisor_checked"] = int(len(need_divisor))
    # a lift is a sum of two 3 x 3 minors of 0/1 matrices, each at most 2
    # in absolute value
    over = np.flatnonzero(_divisor_ranks(two_lifts[need_divisor]) >= 6)
    if len(over):
        report["criterion_le_bfs"] = False
        report["first_violation"] = int(twos[need_divisor[over[0]]])
        return report
    report["criterion_le_bfs"] = True
    report["rank3_count"] = int(counts.get(3, 0))

    # frozen regression value: the witness element reduced mod 2
    witness_code = 0
    for t in ((0, 1, 3), (0, 2, 4), (1, 2, 5)):
        witness_code |= 1 << WEDGE3_INDEX[t]
    report["witness_code"] = int(witness_code)
    report["witness_bfs_rank"] = int(table.rank_of_code(witness_code))
    report["max_rank"] = int(table.max_rank)
    return report
