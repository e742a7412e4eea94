"""Scalar references for the oracle's array kernels.

These are the earlier one-vector-at-a-time implementations of each
family's membership check, closed-form rank, cone-point generator and
Lie-algebra generators, of the odd-prime digit-add rows, of the layer
counts, of the pure-spinor closure and of the BFS rank table, kept here
only to check the array versions in `secant.oracle` against: the
predicates take one coordinate vector (a tuple of ints) and eliminate with
`modp_rank` or `modp_nullspace`, the point generators yield one point at a
time, the Lie-algebra generators apply their action to one unit vector at
a time, the spinor closure flips one code at a time, and the BFS adds one
cone point per numpy call.  `tensor222_check` reads the rank of the
three-factor lower-bound tensor off the library's 2x2x2 table.  Nothing
in `secant` imports this module.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ranks_reference import _flattening
from secant.linalg import (
    _BLOCK,
    mirror_symplectic_form,
    modp_nullspace,
    modp_rank,
    split_symmetric_form,
)
from secant.oracle import (
    _COMPACT_EVERY,
    _PULL_RATIO,
    _SL3_CELLS,
    _UNSEEN,
    _digit_add_rows,
    _isotropic_codec,
    _spinor_generators,
    rank_table,
)
from secant.ranks import (
    EVEN_SUBSETS,
    _divisor_matrix,
    _perm_sign,
    _subset_index,
    _wedge_rows,
    pure_even_spinor,
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


def _to_sub(codec, full):
    """Subspace coordinates of full coordinates; ValueError off the
    subspace."""
    full = [v % codec.p for v in full]
    for row in codec.rref:
        if sum(r * v for r, v in zip(row, full)) % codec.p:
            raise ValueError("vector violates the subspace constraints")
    return [full[c] for c in codec.free]


def _proj_reps(n, p):
    """Projective representatives of F_p^n: first nonzero coordinate 1."""
    out = []
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            out.append((0,) * lead + (1,) + rest)
    return out


def iter_subspaces(k, n, p):
    """All k-dimensional subspaces of F_p^n as rref basis matrices."""
    for pivots in itertools.combinations(range(n), k):
        free_cells = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_cells.append((r, c))
        for fill in itertools.product(range(p), repeat=len(free_cells)):
            mat = [[0] * n for _ in range(k)]
            for r in range(k):
                mat[r][pivots[r]] = 1
            for (r, c), v in zip(free_cells, fill):
                mat[r][c] = v
            yield mat


def _segre_points(fam, p):
    for factors in itertools.product(*(_proj_reps(s, p)
                                       for s in fam["sizes"])):
        yield [math.prod(vals) % p for vals in itertools.product(*factors)]


def _veronese_points(fam, p):
    n = fam["n"]
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for v in _proj_reps(n, p):
        yield [v[i] * v[j] % p for i, j in cells]


def _sl3_points(fam, p):
    for u in _proj_reps(3, p):
        for v in _proj_reps(3, p):
            if sum(a * b for a, b in zip(u, v)) % p == 0:
                yield [u[i] * v[j] % p for i, j in _SL3_CELLS]


def _wedge_points(k, isotropic):
    def points(fam, p):
        n = fam["n"]
        if isotropic:
            form, codec = mirror_symplectic_form(n), _isotropic_codec(n, k, p)
        for mat in iter_subspaces(k, n, p):
            if isotropic and any(
                    sum(x[i] * form[i][j] * y[j]
                        for i in range(n) for j in range(n)) % p
                    for x, y in itertools.combinations(mat, 2)):
                continue
            full = [v % p for v in _wedge_rows(mat, n)]
            yield _to_sub(codec, full) if isotropic else full
    return points


def _quadric_points(fam, p):
    member = _quadric(fam, p)
    return (list(v) for v in _proj_reps(fam["n"], p) if member(v))


def _spinor_points(fam, p):
    if p != 2:
        raise ValueError("spinor10 enumeration is supported over F_2 only")
    for code in sorted(f2_pure_spinor_set()):
        yield [(code >> i) & 1 for i in range(16)]


#: kind -> (fam, p) -> the cone vectors one list at a time, in the order
#: of the array generators
POINTS = {
    "segre": _segre_points, "segre3": _segre_points,
    "veronese2": _veronese_points,
    "gr2": _wedge_points(2, False), "gr3": _wedge_points(3, False),
    "lambda20": _wedge_points(2, True), "lambda30": _wedge_points(3, True),
    "quadric": _quadric_points, "spinor10": _spinor_points,
    "sl3adj": _sl3_points,
}


def _matrix_units(n):
    units = []
    for a in range(n):
        for b in range(n):
            m = [[0] * n for _ in range(n)]
            m[a][b] = 1
            units.append(m)
    return units


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _matrix_of(act, d, p):
    """Matrix mod p of a linear map on coordinate vectors of length d,
    built column by column from the images of the unit vectors."""
    cols = [act([int(r == c) for r in range(d)]) for c in range(d)]
    return [[col[r] % p for col in cols] for r in range(d)]


def _model_generators(d, p, n, unfold, fold, act):
    """Generators of gl_n on a matrix model: for each matrix unit E, the
    coordinate map x -> fold(act(E, unfold(x)))."""
    return [_matrix_of(lambda x, e=e: fold(act(e, unfold(x))), d, p)
            for e in _matrix_units(n)]


def _form_algebra_basis(form, p):
    """Basis of {S : S^T F + F S = 0} mod p (symplectic/orthogonal type)."""
    n = len(form)
    rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * (n * n)
            # (S^T F + F S)[a][b] = sum_k S[k][a] F[k][b] + F[a][k] S[k][b]
            for k in range(n):
                row[k * n + a] = (row[k * n + a] + form[k][b]) % p
                row[k * n + b] = (row[k * n + b] + form[a][k]) % p
            rows.append(row)
    basis = []
    for vec in modp_nullspace(rows, p):
        basis.append([[int(vec[i * n + j]) % p for j in range(n)]
                      for i in range(n)])
    return basis


def _factor_action(sizes, axis, e, vec):
    """A matrix acting on one factor of a flat row-major tensor."""
    stride, size = math.prod(sizes[axis + 1:]), sizes[axis]
    out = []
    for f in range(len(vec)):
        c = f // stride % size
        out.append(sum(e[c][t] * vec[f + (t - c) * stride]
                       for t in range(size)))
    return out


def _segre_generators(fam, p):
    sizes = fam["sizes"]
    return [_matrix_of(functools.partial(_factor_action, sizes, axis, e),
                       math.prod(sizes), p)
            for axis, size in enumerate(sizes) for e in _matrix_units(size)]


def _veronese_generators(fam, p):
    n = fam["n"]
    cells = [(i, j) for i in range(n) for j in range(i, n)]

    def unfold(vec):
        full = [[0] * n for _ in range(n)]
        for (i, j), val in zip(cells, vec):
            full[i][j] = full[j][i] = val
        return full

    def act(e, a):
        ea, ae = _mul(e, a), _mul(a, list(zip(*e)))
        return [[x + y for x, y in zip(r, s)] for r, s in zip(ea, ae)]
    return _model_generators(len(cells), p, n, unfold,
                             lambda b: [b[i][j] for i, j in cells], act)


def _sl3_generators(fam, p):
    def unfold(vec):
        mat = [[0] * 3 for _ in range(3)]
        for (i, j), val in zip(_SL3_CELLS, vec):
            mat[i][j] = val
        mat[2][2] = -mat[0][0] - mat[1][1]
        return mat

    def bracket(e, x):
        return [[a - b for a, b in zip(r, s)]
                for r, s in zip(_mul(e, x), _mul(x, e))]
    return _model_generators(8, p, 3, unfold,
                             lambda mat: [mat[i][j] for i, j in _SL3_CELLS],
                             bracket)


def _derive(e, n, k, vec):
    """A matrix acting on k-vectors as a derivation:
    x_1 ^ ... ^ x_k -> sum over i of x_1 ^ ... ^ E x_i ^ ... ^ x_k."""
    index = _subset_index(n, k)
    out = [0] * len(index)
    for s, c in zip(index, vec):
        if not c:
            continue
        for pos, i in enumerate(s):
            for m in range(n):
                if e[m][i] and (m == i or m not in s):
                    seq = s[:pos] + (m,) + s[pos + 1:]
                    out[index[tuple(sorted(seq))]] += (
                        _perm_sign(seq) * e[m][i] * c)
    return out


def _wedge_generators(k, isotropic):
    def generators(fam, p):
        n = fam["n"]
        if not isotropic:
            return [_matrix_of(functools.partial(_derive, e, n, k),
                               math.comb(n, k), p) for e in _matrix_units(n)]
        codec = _isotropic_codec(n, k, p)
        return [_matrix_of(lambda x, s=s: _to_sub(
                    codec, _derive(s, n, k, _to_full(codec, x))), codec.dim, p)
                for s in _form_algebra_basis(mirror_symplectic_form(n), p)]
    return generators


def _quadric_generators(fam, p):
    form = [[v % p for v in row] for row in split_symmetric_form(fam["n"])]
    return _form_algebra_basis(form, p)


#: kind -> (fam, p) -> the Lie-algebra action matrices, as nested lists in
#: the order of the array builders; the spinor moves were never array-built,
#: so that kind reads the oracle's own builder
GENERATORS = {
    "segre": _segre_generators, "segre3": _segre_generators,
    "veronese2": _veronese_generators,
    "gr2": _wedge_generators(2, False), "gr3": _wedge_generators(3, False),
    "lambda20": _wedge_generators(2, True),
    "lambda30": _wedge_generators(3, True),
    "quadric": _quadric_generators, "spinor10": _spinor_generators,
    "sl3adj": _sl3_generators,
}


def digit_add_rows(halves, p, k, scale):
    """One int32 row per half a: row[x] is scale times the k-digit base-p
    code of the digitwise sum a + x mod p, for x in range(p**k), one digit
    place at a time."""
    x = np.arange(p ** k, dtype=np.int32)
    halves = np.asarray(halves).astype(np.int32)[:, None]
    rows = np.zeros((len(halves), p ** k), dtype=np.int32)
    for i in range(k):
        w = p ** i
        digit = halves // w + x // w
        digit %= p
        digit *= w * scale
        rows += digit
    return rows


def layer_counts(ranks):
    """{rank: count} of a rank array, by sorting it."""
    vals, counts = np.unique(ranks, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


def f2_pure_spinor_set():
    """Pure even spinors over F_2 as a set of 16-bit codes: the exponential
    cells exp(omega) . vacuum, one `pure_even_spinor` call per 5x5 skew
    matrix over F_2, closed under the double Clifford flips
    e_I -> e_{I xor {i,j}}, one code and one flip at a time."""
    pairs = tuple(itertools.combinations(range(5), 2))
    cell = set()
    for bits in range(1 << len(pairs)):
        omega = [[0] * 5 for _ in range(5)]
        for t, (i, j) in enumerate(pairs):
            omega[i][j] = bits >> t & 1
            omega[j][i] = -omega[i][j]
        cell.add(sum(int(c) % 2 << t
                     for t, c in enumerate(pure_even_spinor(omega))))
    index = {frozenset(s): t for t, s in enumerate(EVEN_SUBSETS)}
    flips = [[index[frozenset(s) ^ {i, j}] for s in EVEN_SUBSETS]
             for i, j in pairs]
    seen = frontier = cell
    while frontier:
        frontier = {sum(1 << perm[t] for t in range(16) if code >> t & 1)
                    for code in frontier for perm in flips} - seen
        seen = seen | frontier
    return seen


def bfs_rank_table(points, threads=1):
    """The rank bytes of `secant.oracle.bfs_rank_table`, one cone point per
    numpy call: the same direction rule, blocks of 2^16 codes and thread
    split, but every step sums one cone point with every live key of a
    block (over an odd prime by two takes from that point's digit-add
    rows), a pull drops its placed codes every `_COMPACT_EVERY` cone
    points, and every code is expanded, not one per F_p^* orbit.  Returns
    the (p**d,) uint8 rank array."""
    p, d = points.prime, points.dim
    size = p ** d
    cone = points.cone_codes()
    ranks = np.full(size, _UNSEEN, dtype=np.uint8)
    ranks[0] = 0
    ranks[cone] = 1
    if p == 2:
        steps = [int(s) for s in cone]
    else:
        half = p ** (d // 2)
        lo_keys, lo_of = np.unique(cone % half, return_inverse=True)
        hi_keys, hi_of = np.unique(cone // half, return_inverse=True)
        lo_rows = _digit_add_rows(lo_keys, p, d // 2, 1)
        hi_rows = _digit_add_rows(hi_keys, p, d - d // 2, half)
        steps = [(lo_rows[i], hi_rows[j]) for i, j in zip(lo_of, hi_of)]

    def expand(r, pull, block):
        n = len(block)
        if not n:
            return
        keys = [block] if p == 2 else list(np.divmod(block, half))
        cand = np.empty(n, dtype=np.intp)
        parts = np.empty((2, n), dtype=np.int32)
        seen = np.empty(n, dtype=np.uint8)
        hit = np.empty(n, dtype=bool)
        found = np.zeros(n, dtype=bool)
        want = r - 1 if pull else _UNSEEN
        for k, s in enumerate(steps, 1):
            m = len(keys[0])
            c, ht = cand[:m], hit[:m]
            if p == 2:
                np.bitwise_xor(keys[0], s, out=c)
            else:
                np.take(s[1], keys[0], out=parts[0, :m], mode="clip")
                np.take(s[0], keys[1], out=parts[1, :m], mode="clip")
                np.add(parts[0, :m], parts[1, :m], out=c)
            np.take(ranks, c, out=seen[:m], mode="clip")
            np.equal(seen[:m], want, out=ht)
            if not pull:
                ranks[c[ht]] = r
                continue
            done = found[:m]
            done |= ht
            if k % _COMPACT_EVERY and k < len(steps) or not done.any():
                continue
            codes = keys[0] if p == 2 else keys[0] * half + keys[1]
            ranks[codes[done]] = r
            keep = ~done
            keys = [key[keep] for key in keys]
            if not len(keys[0]):
                return
            found[:len(keys[0])] = False

    unseen = size - 1 - len(cone)
    placed = len(cone)
    r = 1
    while unseen:
        r += 1
        pull = placed * _PULL_RATIO > unseen
        if pull:
            starts = range(0, size, _BLOCK)

            def run(start):
                block = np.flatnonzero(ranks[start:start + _BLOCK] == _UNSEEN)
                block += start
                expand(r, pull, block)
        else:
            frontier = np.flatnonzero(ranks == r - 1)
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
        unseen -= placed
    return ranks


def tensor222_check(p: int) -> bool:
    """BFS rank over F_p of the three-factor lower-bound tensor (the sum of
    the three products one step off a corner) equals 3 on the 2x2x2 family;
    also sanity-checks a decomposable control at rank 1."""
    if p > 5:
        raise ValueError("tensor222_check supports p <= 5")
    table = rank_table("segre-2x2x2", p)
    coords = [0] * 8
    for (i, j, k) in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        coords[(i * 2 + j) * 2 + k] = 1
    control = [0] * 8
    control[0] = 1  # e0 x e0 x e0
    if table.rank_of_vec(control) != 1:
        raise AssertionError("decomposable control is not rank 1")
    return table.rank_of_vec(coords) == 3
