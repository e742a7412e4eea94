"""Exact Lie algebra arithmetic in a Chevalley basis.

Builds the simple Lie algebras of rank <= 8 over the rationals with integer
structure constants, computes weight gradings and orbit dimensions by exact
rank computations, and packages two families of invariants used by the
wildness witnesses: the adjoint-orbit dimensions attached to sums of root
vectors in the largest exceptional algebra, and image statistics of skew
bilinear coforms on a quadratic space (dimension of the image, rank of the
restricted symmetric form).

Integers first: structure constants are computed on simple-root
coefficient tuples with the root system's integer Gram matrix, and the
coform statistics clear denominators once and eliminate over the integers.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

from .linalg import (
    IntEchelon,
    _exact_div,
    _int_inverse,
    _integer_matrix,
    _integer_row,
    int_rank,
    int_row_basis,
    inverse,
    matmul,
    split_symmetric_form,
    transpose,
)
from .rootsys import RootSystem, SimpleType, build_root_system

__all__ = [
    "ChevalleyAlgebra",
    "GradedDecomposition",
    "E7WitnessReport",
    "build_chevalley",
    "grade_by_fundamental",
    "orbit_dim",
    "exp_ad_apply",
    "e7_wild_witness",
    "partition_im_stats",
    "so_nilpotent_realization",
    "coform_of_operator",
    "random_so_conjugate",
    "skew_im_stats",
    "isotropic_pair_case",
    "split_symmetric_form",
    "sample_isotropic_plane",
    "adjoint_pair_classes",
]


# ---------------------------------------------------------------------------
# Chevalley algebra construction


class ChevalleyAlgebra:
    """Simple Lie algebra over Q with an integral root-vector basis.

    Basis indices: 0..l-1 are the simple coroot generators h_1..h_l;
    l + k is the root vector e_alpha for alpha = self.root_list[k], a
    simple-root coefficient tuple (positive roots in height-lex order, then
    their negatives in the same order).  Elements are sparse dicts
    {basis index: coefficient}.  The structure constants N(a, b) live only
    in the bracket table.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self.type = system.type
        l = self.type.rank
        pos = list(system.positive_coeffs)
        self.root_list: tuple = tuple(pos + [tuple(-c for c in r) for r in pos])
        self.root_index = {r: k for k, r in enumerate(self.root_list)}
        self.dim = l + len(self.root_list)
        # nonzero brackets of basis vectors as (basis index, coefficient)
        # terms: [h_i, e_a] = <a, a_i^v> e_a, [e_a, e_b] = N(a, b) e_{a+b},
        # and [e_a, e_-a] = sum_i m_i (a_i,a_i)/(a,a) h_i for a = sum m_i a_i
        self._table = [{} for _ in range(self.dim)]
        shared: dict = {}  # one tuple per distinct term list

        def put(i, j, terms):
            self._table[i][j] = shared.setdefault(terms, terms)

        index = {r: k for k, r in enumerate(self.root_list, l)}
        for r, k in index.items():
            for i, m in enumerate(system.coroot_marks(r)):
                if m:
                    put(i, k, ((k, m),))
                    put(k, i, ((k, -m),))
            rr = system.form(r, r)
            put(k, index[tuple(-c for c in r)],
                tuple((i, _exact(m * system.gram[i][i], rr))
                      for i, m in enumerate(r) if m))
        for (ra, rb), v in _structure_constants(system).items():
            put(index[ra], index[rb],
                ((index[tuple(map(operator.add, ra, rb))], v),))

    def root_of_basis(self, k: int):
        """Simple-root coefficient tuple of the root vector at basis index k."""
        l = self.type.rank
        if k < l:
            raise ValueError("basis index %d is a Cartan generator" % k)
        return self.root_list[k - l]

    def root_basis_index(self, root) -> int:
        """Basis index of e_alpha for a root given by its simple-root
        coefficients."""
        return self.type.rank + self.root_index[root]

    # -- bracket

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, xi in x.items():
            row = self._table[i]
            for j, yj in y.items():
                for k, n in row.get(j, ()):
                    v = out.get(k, 0) + xi * yj * n
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out


def _exact(num: int, den: int) -> int:
    """num / den; AssertionError unless it divides."""
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError("%d does not divide %d" % (den, num))
    return q


def _structure_constants(system: RootSystem) -> dict:
    """Integer constants N(a,b) for all root pairs with a+b a root, keyed by
    simple-root coefficient tuples.

    Signs are pinned on one distinguished ("extraspecial") decomposition of
    each positive non-simple root -- the decomposition whose first summand
    comes earliest in the height-lex order -- where N = +(p+1) with p the
    length of the descending root string.  All other constants follow from
    the Jacobi identity (Carter, Simple Groups of Lie Type, 4.1); ratios of
    squared lengths come from the integer Gram matrix and divide exactly.
    """
    pos = system.positive_coeffs
    pidx = {r: i for i, r in enumerate(pos)}
    roots = set(pos) | {tuple(-x for x in r) for r in pos}
    norm = {r: system.form(r, r) for r in roots}

    def neg(a):
        return tuple(map(operator.neg, a))

    def sub(a, b):
        return tuple(map(operator.sub, a, b))

    def string_down(a, b) -> int:
        # largest k with b - k*a a root
        k = 0
        cur = sub(b, a)
        while cur in roots:
            k += 1
            cur = sub(cur, a)
        return k

    table: dict = {}  # (a, b) with pidx[a] < pidx[b] -> N(a,b)

    def npos(a, b) -> int:
        if pidx[a] < pidx[b]:
            return table[(a, b)]
        return -table[(b, a)]

    def nval(a, b) -> int:
        ha, hb = sum(a), sum(b)
        if ha > 0 and hb > 0:
            return npos(a, b)
        if ha < 0 and hb < 0:
            return -npos(neg(a), neg(b))
        if ha < 0:  # normalize to (positive, negative)
            return -nval(b, a)
        xi, mu = a, neg(b)
        nu = tuple(map(operator.add, a, b))
        if sum(nu) > 0:
            return _exact(-norm[nu] * npos(mu, nu), norm[xi])
        rho = neg(nu)
        return _exact(-norm[rho] * npos(xi, rho), norm[mu])

    for g in pos:  # by height, so every constant used is already known
        if sum(g) < 2:
            continue
        specials = []
        for a in pos:
            if pidx[a] >= pidx[g]:
                break
            b = sub(g, a)
            if b in pidx and pidx[a] < pidx[b]:
                specials.append((a, b))
        a1, b1 = specials[0]
        n11 = string_down(a1, b1) + 1
        table[(a1, b1)] = n11
        for a, b in specials[1:]:
            na = neg(a)
            d1 = sub(b1, a)
            d2 = sub(a1, a)
            t = 0
            if d1 in roots:
                t += nval(b1, na) * nval(d1, a1)
            if d2 in roots:
                t += nval(na, a1) * nval(d2, b1)
            val = _exact(norm[g] * t, norm[b] * n11)
            if not val:
                raise AssertionError("zero constant N%s" % ((a, b),))
            table[(a, b)] = val

    # a root as one integer in signed base 32: coefficients of a sum of
    # two roots lie in -12..12, so codes add like the tuples
    code = {r: sum(x << (5 * i) for i, x in enumerate(r)) for r in roots}
    sums = set(code.values())
    full: dict = {}
    for a, ca in code.items():
        for b, cb in code.items():
            if ca + cb in sums:
                v = nval(a, b)
                if not v:
                    raise AssertionError("zero constant N%s" % ((a, b),))
                full[(a, b)] = v
    return full


@lru_cache(maxsize=None)
def build_chevalley(t: SimpleType) -> ChevalleyAlgebra:
    """Construct (and memoize) the Chevalley-basis Lie algebra of type t."""
    if t.rank > 8:
        raise ValueError("chevalley construction capped at rank 8, got %s" % (t,))
    return ChevalleyAlgebra(build_root_system(t))


# ---------------------------------------------------------------------------
# Gradings


@dataclass(frozen=True)
class GradedDecomposition:
    """Partition of the basis by an integer grading."""

    components: dict  # degree -> sorted tuple of basis indices

    @property
    def dims(self) -> dict:
        return {d: len(v) for d, v in self.components.items()}

    @property
    def total_dim(self) -> int:
        return sum(len(v) for v in self.components.values())

    def degrees(self) -> tuple:
        return tuple(sorted(self.components))


def grade_by_fundamental(alg: ChevalleyAlgebra, vertex: int) -> GradedDecomposition:
    """Grade the algebra by the coefficient of the chosen simple root.

    The degree of e_alpha is the coefficient of the vertex's simple root in
    alpha (an integer); the Cartan subalgebra sits in degree 0.  For a
    cominuscule vertex this is the eigenvalue grading of the corresponding
    one-parameter subgroup.
    """
    l = alg.type.rank
    if not 1 <= vertex <= l:
        raise ValueError("vertex %d out of range 1..%d" % (vertex, l))
    comps: dict = {0: list(range(l))}
    for k, r in enumerate(alg.root_list):
        comps.setdefault(r[vertex - 1], []).append(l + k)
    return GradedDecomposition({d: tuple(sorted(v)) for d, v in comps.items()})


# ---------------------------------------------------------------------------
# Orbit dimensions


def orbit_dim(alg: ChevalleyAlgebra, x: dict) -> int:
    """Dimension of the adjoint orbit through x: rank of t |-> [t, x]."""
    ints, _ = _integer_row(x.values())
    x = {k: w for k, w in zip(x, ints) if w}
    if not x:
        return 0
    ech = IntEchelon()
    for k in range(alg.dim):
        row = alg.bracket({k: 1}, x)
        if row:
            ech.insert(row)
    return ech.rank


def exp_ad_apply(alg: ChevalleyAlgebra, n: dict, x: dict) -> dict:
    """exp(ad n) applied to x, for ad-nilpotent n (e.g. a root vector),
    summed up to the 30th power of ad n."""
    out = dict(x)
    term = dict(x)
    for m in range(1, 31):
        term = alg.bracket(n, term)
        if not term:
            return out
        for k, v in term.items():
            c = out.get(k, 0) + Q(v, 1) / factorial(m)
            if c:
                out[k] = c
            else:
                out.pop(k, None)
    raise ValueError("exp_ad_apply: ad-nilpotency not reached; is n nilpotent?")


# ---------------------------------------------------------------------------
# The 56-dimensional wildness witness inside the largest exceptional algebra


@dataclass(frozen=True)
class E7WitnessReport:
    """Adjoint-orbit dimensions certifying a border-rank-2 gap.

    The degree-1 component of the 5-graded largest exceptional algebra is
    the 56-dimensional module.  Sums of one or two extreme vectors fall in
    orbits of dimension 58, 92 or 114 (indexed by the inner product of the
    two roots); the reported element is a sum of three root vectors on a
    common isotropic configuration whose orbit dimension 112 matches none
    of them, so it lies outside the first two secant loci while its degree
    forces it into the closure of the second.
    """

    quadruple: tuple  # coeff tuples: (-highest root, a1, a2, a3), a D4 diagram
    element_roots: tuple  # coeff tuples of the three summands
    element: dict  # basis index -> coefficient
    single_dim: int
    pair_dims: dict  # inner product value -> orbit dim
    pair_reps: dict  # inner product value -> (coeff tuple, coeff tuple)
    witness_dim: int

    def as_dict(self) -> dict:
        return {
            "quadruple": [list(c) for c in self.quadruple],
            "element_roots": [list(c) for c in self.element_roots],
            "element": {str(k): v for k, v in sorted(self.element.items())},
            "single_dim": self.single_dim,
            "pair_dims": {str(k): v for k, v in sorted(self.pair_dims.items())},
            "pair_reps": {
                str(k): [list(a), list(b)]
                for k, (a, b) in sorted(self.pair_reps.items())
            },
            "witness_dim": self.witness_dim,
        }


def e7_wild_witness() -> E7WitnessReport:
    """Build the rank-3/border-rank-2 witness in the 56-dimensional module.

    Works inside the rank-8 exceptional algebra graded by its adjoint
    vertex; returns orbit dimensions for a single extreme vector, for one
    representative pair per inner-product class, and for the three-term
    witness supported on pairwise orthogonal degree-1 roots.
    """
    alg = build_chevalley(SimpleType("E", 8))
    sysm = alg.system
    if sysm.gram_den != 1:  # so form is the invariant inner product
        raise AssertionError("E8 Gram matrix is not integral")
    inner = sysm.form
    delta1_idx = list(grade_by_fundamental(alg, 1).components[1])
    delta1 = [alg.root_of_basis(k) for k in delta1_idx]
    theta = sysm.positive_coeffs[-1]
    if any(inner(r, theta) != 1 for r in delta1):
        raise AssertionError("a degree-1 root does not pair to 1 with theta")

    single_dim = orbit_dim(alg, {delta1_idx[0]: 1})

    pair_dims: dict = {2: single_dim}
    pair_reps: dict = {2: (delta1[0], delta1[0])}
    for i, j in itertools.combinations(range(len(delta1)), 2):
        v = inner(delta1[i], delta1[j])
        if v not in (1, 0, -1):
            raise AssertionError("degree-1 roots pair to %d" % v)
        if v in pair_dims:
            continue
        pair_dims[v] = orbit_dim(alg, {delta1_idx[i]: 1, delta1_idx[j]: 1})
        pair_reps[v] = (delta1[i], delta1[j])
        if len(pair_dims) == 4:
            break

    triple = None
    for i, j, k in itertools.combinations(range(len(delta1)), 3):
        if (inner(delta1[i], delta1[j]) == 0
                and inner(delta1[i], delta1[k]) == 0
                and inner(delta1[j], delta1[k]) == 0):
            triple = (i, j, k)
            break
    if triple is None:
        raise AssertionError(
            "no pairwise orthogonal degree-1 root triple: root table bug")
    i, j, k = triple
    minus_theta = tuple(-c for c in theta)
    if any(inner(minus_theta, delta1[t]) != -1 for t in triple):
        raise AssertionError("the witness roots and -theta are not a D4")
    element = {delta1_idx[i]: 1, delta1_idx[j]: 1, delta1_idx[k]: 1}
    witness_dim = orbit_dim(alg, element)

    roots = (delta1[i], delta1[j], delta1[k])
    return E7WitnessReport(
        quadruple=(minus_theta,) + roots,
        element_roots=roots,
        element=element,
        single_dim=single_dim,
        pair_dims=pair_dims,
        pair_reps=pair_reps,
        witness_dim=witness_dim,
    )


# ---------------------------------------------------------------------------
# Image statistics of skew coforms on a quadratic space


def partition_im_stats(parts) -> tuple:
    """(sum of max(d-1,0), sum of max(d-2,0)) over the partition's parts.

    These are the dimension of the image and the rank of the restricted
    symmetric form for a nilpotent element of an orthogonal Lie algebra
    with the given Jordan type.
    """
    parts = list(parts)
    if any(int(d) != d or d < 1 for d in parts):
        raise ValueError("partition parts must be positive integers")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return (sum(max(d - 1, 0) for d in parts),
            sum(max(d - 2, 0) for d in parts))


def so_nilpotent_realization(parts) -> tuple:
    """Integer matrices (A, G): G a nondegenerate symmetric form, A a
    G-skew nilpotent operator with Jordan type the given partition.

    Odd parts are realized by single shift blocks with the alternating
    anti-diagonal form; even parts (which must occur with even
    multiplicity) by hyperbolically paired shift blocks.
    """
    parts = list(parts)
    partition_im_stats(parts)  # validates shape
    counts: dict = {}
    for d in parts:
        counts[d] = counts.get(d, 0) + 1
    for d, m in counts.items():
        if d % 2 == 0 and m % 2 != 0:
            raise ValueError(
                "even part %d has odd multiplicity %d: not an orthogonal "
                "partition" % (d, m))
    n = sum(parts)
    A = [[0] * n for _ in range(n)]
    G = [[0] * n for _ in range(n)]
    off = 0

    def shift_block(start, d):
        for i in range(d - 1):
            A[start + i + 1][start + i] = 1  # A w_i = w_{i+1}

    for d, m in sorted(counts.items(), reverse=True):
        if d % 2 == 1:
            for _ in range(m):
                shift_block(off, d)
                for i in range(d):
                    G[off + i][off + d - 1 - i] = (-1) ** i
                off += d
        else:
            for _ in range(m // 2):
                u, v = off, off + d
                shift_block(u, d)
                shift_block(v, d)
                for i in range(d):
                    G[u + i][v + d - 1 - i] = (-1) ** i
                    G[v + d - 1 - i][u + i] = (-1) ** i
                off += 2 * d
    if off != n:
        raise AssertionError("blocks fill %d of %d coordinates" % (off, n))
    return A, G


def coform_of_operator(A, G):
    """The skew coform W = A G^{-1} of a G-skew operator A; ValueError when
    W is not skew.

    A is cleared to integers over one denominator and G^{-1} is taken as
    integers over one (`_int_inverse`), so the product and the skew check
    run in ints and each entry is divided once: an int where it divides, a
    Fraction otherwise.
    """
    a, da = _integer_matrix(A)
    g, dg = _int_inverse(G)
    cols = list(zip(*g))
    W = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
    n = len(W)
    for i in range(n):
        for j in range(n):
            if W[i][j] != -W[j][i]:
                raise ValueError("operator is not skew for this form")
    den = da * dg
    return [[_exact_div(x, den) for x in row] for row in W]


def random_so_conjugate(A, G, rng: random.Random) -> tuple:
    """Transport (A, G) along a random integer change of basis: two passes
    of random row additions."""
    n = len(A)
    P = [[Q(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2):
        for i in range(n):
            j = rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            if not c:
                continue
            for k in range(n):
                P[i][k] += c * P[j][k]
    Pinv = inverse(P)
    A2 = matmul(matmul(P, [[Q(x) for x in row] for row in A]), Pinv)
    Pit = transpose(Pinv)
    G2 = matmul(matmul(Pit, [[Q(x) for x in row] for row in G]), Pinv)
    return A2, G2


def _gram(sym, vecs) -> list:
    """Gram matrix [u^T S v] of integer vectors under the integer form S."""
    rows = [[(j, s) for j, s in enumerate(row) if s] for row in sym]
    images = [[sum([s * v[j] for j, s in row]) for row in rows] for v in vecs]
    return [[sum(map(operator.mul, u, w)) for w in images] for u in vecs]


def skew_im_stats(omega, sym) -> tuple:
    """(dim Im, rank of the symmetric form on Im) for a skew coform.

    `omega` is the matrix of a skew bivector (mapping covectors to vectors
    in the coordinates where `sym` is the matrix of the ambient symmetric
    form); the ambient form must be nondegenerate.  Entries are ints or
    Fractions; each matrix is cleared of denominators once, which scales
    neither statistic, and the ranks are taken by integer fraction-free
    elimination.
    """
    return _int_skew_im_stats(_integer_matrix(omega)[0],
                              _integer_matrix(sym)[0])


def _check_forms(sym, omega=None) -> None:
    """Raise ValueError unless `sym` is symmetric and nondegenerate and
    `omega`, when given, is skew; entries are checked in row-major order,
    the coform's before the form's at each one."""
    n = len(sym)
    for i in range(n):
        for j in range(n):
            if omega is not None and omega[i][j] != -omega[j][i]:
                raise ValueError("coform matrix is not skew-symmetric")
            if sym[i][j] != sym[j][i]:
                raise ValueError("ambient form matrix is not symmetric")
    # IntEchelon: faster than the dense loop on these mostly-zero forms
    if len(int_row_basis(sym)) != n:
        raise ValueError("ambient symmetric form is degenerate")


def _int_skew_im_stats(omega, sym) -> tuple:
    """``skew_im_stats`` of integer matrices."""
    _check_forms(sym, omega)
    cols = [list(col) for col in zip(*omega)]
    basis = [cols[c] for c in int_row_basis(cols)]  # spans the image
    # the Gram rank by IntEchelon too: faster here on these small sparse
    # matrices than the dense loop
    return len(basis), len(int_row_basis(_gram(sym, basis)))


_CASE_TABLE = {
    (4, 4): "a",
    (4, 2): "b",
    (4, 0): "c",
    (2, 1): "d",
    (2, 0): "e",
    (0, 0): "f",
}


def isotropic_pair_case(x1, x2, y1, y2, sym) -> str:
    """Case label (a-f) of the coform x1^x2 + y1^y2 of two isotropic planes.

    Classifies by (dim Im, rank of the restricted form); for genuine pairs
    of isotropic 2-planes the statistics always land in the six-row table
    {(4,4),(4,2),(4,0),(2,1),(2,0),(0,0)}.  The four vectors share one
    cleared denominator D, which scales the coform by D^2.  Their 4x4 Gram
    matrix holds the planes' isotropy values.  When the four are
    independent the coform is V J V^T with V of rank 4 and J invertible, so
    its image is their span and the statistics are (4, rank of the Gram
    matrix), and both planes span 2-planes; otherwise the coform is built
    and its image eliminated.
    """
    sym, _ = _integer_matrix(sym)
    vecs, _ = _integer_matrix([x1, x2, y1, y2])
    gram = _gram(sym, vecs)
    independent = int_rank(vecs) == 4
    for k in (0, 2):
        if any(gram[i][j] for i in (k, k + 1) for j in (k, k + 1)):
            raise ValueError("input plane is not isotropic")
        if not independent and int_rank(vecs[k:k + 2]) != 2:
            raise ValueError("input vectors do not span a 2-plane")
    if independent:
        _check_forms(sym)
        stats = (4, int_rank(gram))
    else:
        x1, x2, y1, y2 = vecs
        W = [[a1 * b2 - a2 * b1 + c1 * d2 - c2 * d1
              for b1, b2, d1, d2 in zip(x1, x2, y1, y2)]
             for a1, a2, c1, c2 in zip(x1, x2, y1, y2)]
        stats = _int_skew_im_stats(W, sym)
    if stats not in _CASE_TABLE:
        raise ValueError(
            "image statistics %s outside the isotropic-pair table" % (stats,))
    return _CASE_TABLE[stats]


def sample_isotropic_plane(n: int, rng: random.Random) -> tuple:
    """Two rational vectors spanning an isotropic plane for the split form.

    Sampling works in the hyperbolic chart: free integer coordinates in
    [-9, 9] with one (for the first vector) or two (for the second) linear
    equations solved exactly for leftover hyperbolic coordinates.
    Everything is computed in integers: each solved coordinate is one
    quotient of integers (an int when it divides), and the rank check runs
    on the vectors scaled by their denominators.
    """
    m = n // 2
    extra = n % 2
    if m < 3:
        raise ValueError("need at least 3 hyperbolic pairs to sample planes")

    def assemble(p, q, w):
        v = []
        for i in range(m):
            v.extend((p[i], q[i]))
        v.extend(w)
        return v

    def draw(k):
        return [rng.randint(-9, 9) for _ in range(k)]

    while True:
        p = draw(m)
        if not p[0]:
            continue
        w, q = draw(extra), draw(m)
        # (u,u) = 2 sum p_i q_i + sum w_j^2 = 0, solved for q_0 = nq / dq
        dq = 2 * p[0]
        nq = -(2 * sum(p[i] * q[i] for i in range(1, m))
               + sum(x * x for x in w))

        r, z, s = draw(m), draw(extra), draw(m)
        det = r[0] * p[1] - r[1] * p[0]
        if not det:
            continue
        # (v,v) = 0 and (u,v) = 0, solved for s_0, s_1 by Cramer's rule:
        #   r_0 s_0 + r_1 s_1 = -sum_{i>=2} r_i s_i - sum z_j^2 / 2 = c1 / 2
        #   p_0 s_0 + p_1 s_1 = -sum_{i>=2} p_i s_i - sum q_i r_i
        #                       - sum w_j z_j = c2 / dq
        c1 = -(2 * sum(r[i] * s[i] for i in range(2, m))
               + sum(x * x for x in z))
        c2 = -(dq * (sum(p[i] * s[i] for i in range(2, m))
                     + sum(q[i] * r[i] for i in range(1, m))
                     + sum(a * b for a, b in zip(w, z)))
               + nq * r[0])
        ds = 2 * dq * det
        ns = [c1 * p[1] * dq - 2 * c2 * r[1], 2 * r[0] * c2 - p[0] * c1 * dq]
        if int_rank([
                assemble([dq * x for x in p], [nq] + [dq * x for x in q[1:]],
                         [dq * x for x in w]),
                assemble([ds * x for x in r], ns + [ds * x for x in s[2:]],
                         [ds * x for x in z])]) != 2:
            continue
        q[0] = _exact_div(nq, dq)
        s[:2] = (_exact_div(x, ds) for x in ns)
        return tuple(assemble(p, q, w)), tuple(assemble(r, s, z))


# ---------------------------------------------------------------------------
# pair classes of highest-root vectors


def adjoint_pair_classes(alg: ChevalleyAlgebra) -> dict:
    """{(θ, β): β}, one root β per value, for the pairs e_θ + e_β of the
    highest root θ with a root β of its length.

    W is transitive on the roots of one length, so these are the classes of
    pairs (θ, wθ).  Each class keeps its β with the largest marks.  θ pairs
    with itself only when its stabilizer in W is nontrivial, that is when
    some mark of θ is 0 (it is generated by the simple reflections fixing
    θ).
    """
    sys = alg.system
    theta = sys.positive_coeffs[-1]
    long = sys.form(theta, theta)
    with_self = 0 in sys.highest_root_marks
    best: dict = {}
    for beta in sorted(alg.root_list, key=sys.coroot_marks, reverse=True):
        if sys.form(beta, beta) == long and (with_self or beta != theta):
            best.setdefault(_exact_div(sys.form(theta, beta), sys.gram_den),
                            beta)
    return best
