"""Fraction-arithmetic references for the integer Lie layer.

These are the earlier implementations, kept here only to check the
integer code against: the simple roots of each family in rational
ε-coordinates (`_simple_root_table`) and the integer Gram matrix cleared
from them (`cleared_gram`), root generation by reflections of rational
ε-coordinate vectors, fundamental weights and the invariant form in
ε-coordinates, Weyl orbits of weights and pair classes on them,
structure constants computed on ε-vectors with Fraction
ratios of squared lengths, image statistics by rational elimination, and
isotropic planes sampled in Fraction coordinates, and the coform of an
operator as a Fraction matrix product.  `random_so_conjugate` moves an
operator and its form along a random rational change of basis, in Fraction
arithmetic.  Nothing in `secant` imports this module.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

from linalg_reference import dot, inverse, matmul, row_reduce, transpose
from secant.linalg import _integer_matrix
from secant.rootsys import SimpleType


def _basis(n: int):
    def e(i: int) -> list[Q]:
        v = [Q(0)] * n
        v[i - 1] = Q(1)
        return v
    return e


def _diff(n, i, j) -> tuple:
    e = _basis(n)
    return tuple(a - b for a, b in zip(e(i), e(j)))


def _e8_simple_roots() -> list[tuple]:
    e = _basis(8)
    roots = [
        _diff(8, 7, 6),   # α1
        _diff(8, 6, 5),   # α2
        _diff(8, 5, 4),   # α3
        _diff(8, 4, 3),   # α4
        _diff(8, 3, 2),   # α5
        _diff(8, 2, 1),   # α6
    ]
    a7 = [Q(1, 2)] * 8
    for i in range(1, 7):
        a7[i] = Q(-1, 2)
    roots.append(tuple(a7))  # α7 = (e1 + e8 - e2 - ... - e7)/2
    roots.append(tuple(a + b for a, b in zip(e(1), e(2))))  # α8 = e1 + e2
    return roots


def _simple_root_table(st: SimpleType) -> tuple[list[tuple], Q]:
    """(simple roots in ε-coordinates, form scale).

    The bilinear form on the ambient space is `scale * (standard dot)`,
    chosen so long roots get squared length 2.
    """
    fam, n = st.family, st.rank
    if fam == "A":
        return [_diff(n + 1, i, i + 1) for i in range(1, n + 1)], Q(1)
    if fam == "B":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(e(n)))
        return roots, Q(1)
    if fam == "C":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(2 * x for x in e(n)))
        return roots, Q(1, 2)
    if fam == "D":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(a + b for a, b in zip(e(n - 1), e(n))))
        return roots, Q(1)
    if fam == "E":
        e8 = _e8_simple_roots()
        return e8[8 - n:], Q(1)
    if fam == "F":
        e = _basis(4)
        a1 = tuple(Q(1, 2) * x for x in
                   (Q(1), Q(-1), Q(-1), Q(-1)))
        return [a1, tuple(e(4)), _diff(4, 3, 4), _diff(4, 2, 3)], Q(1)
    if fam == "G":
        e = _basis(3)
        a1 = _diff(3, 1, 2)
        a2 = tuple(Q(c) for c in (-2, 1, 1))
        return [a1, a2], Q(1, 3)
    raise ValueError("unknown family %r" % fam)


#: every simple type of rank at most 8
ALL_TYPES = ([SimpleType("A", n) for n in range(1, 9)]
             + [SimpleType(f, n) for f in "BC" for n in range(2, 9)]
             + [SimpleType("D", n) for n in range(3, 9)]
             + [SimpleType("E", n) for n in (6, 7, 8)]
             + [SimpleType("F", 4), SimpleType("G", 2)])


def cleared_gram(st) -> tuple:
    """(Gram matrix, den): the form on the ε-coordinate simple roots
    cleared to integers over one denominator."""
    simple, scale = _simple_root_table(st)
    rows, den = _integer_matrix(simple)
    gram, gram_den = _integer_matrix(
        [scale * dot(a, b) / (den * den) for b in rows] for a in rows)
    return tuple(map(tuple, gram)), gram_den


def matvec(mat, v):
    return tuple(dot(row, v) for row in mat)


def fraction_form(st):
    """(simple roots in ε-coordinates, the invariant form on ε-vectors),
    normalized so long roots have squared length 2."""
    simple, scale = _simple_root_table(st)

    def inner(u, v):
        return scale * dot(u, v)
    return simple, inner


def fraction_coroot_pairing(st, v, i) -> Q:
    """⟨v, αᵢ∨⟩ = 2(v, αᵢ)/(αᵢ, αᵢ) for the i-th simple root (0-based i)."""
    simple, inner = fraction_form(st)
    a = simple[i]
    return 2 * inner(v, a) / inner(a, a)


@lru_cache(maxsize=None)
def fraction_root_data(st):
    """(positive roots in height-lex order, {root: coefficients}, Cartan
    matrix, highest-root marks) from reflections of ε-vectors."""
    simple, inner = fraction_form(st)
    seen = set(simple)
    frontier = list(seen)
    norms = [dot(a, a) for a in simple]
    while frontier:
        nxt = []
        for r in frontier:
            for a, na in zip(simple, norms):
                c = 2 * dot(r, a) / na
                img = tuple(x - c * y for x, y in zip(r, a))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    roots = set(seen) | {tuple(-x for x in r) for r in seen}
    ginv = inverse([[inner(a, b) for b in simple] for a in simple])
    coeffs = {}
    for r in roots:
        c = matvec(ginv, [inner(r, a) for a in simple])
        assert all(x.denominator == 1 for x in c)
        coeffs[r] = tuple(int(x) for x in c)
    pos = sorted((r for r in roots if sum(coeffs[r]) > 0),
                 key=lambda r: (sum(coeffs[r]), coeffs[r]))
    cartan = tuple(tuple(int(2 * inner(a, b) / inner(a, a)) for b in simple)
                   for a in simple)
    theta = pos[-1]
    marks = tuple(2 * inner(theta, a) / inner(a, a) for a in simple)
    assert all(m.denominator == 1 for m in marks)
    return tuple(pos), coeffs, cartan, tuple(int(m) for m in marks)


@lru_cache(maxsize=None)
def fraction_fundamental_weights(st) -> tuple:
    """ε-coordinates of the fundamental weights: π_i = Σ_k C[i][k] α_k with
    C the inverse of the transposed Cartan matrix."""
    simple, inner = fraction_form(st)
    a = [[2 * inner(x, y) / inner(x, x) for y in simple] for x in simple]
    c = inverse(transpose(a))
    return tuple(
        tuple(sum((c[i][k] * ak[t] for k, ak in enumerate(simple)), Q(0))
              for t in range(len(simple[0])))
        for i in range(len(simple)))


def fraction_weight_vec(st, marks) -> tuple:
    """ε-coordinates of the weight with the given marks."""
    fw = fraction_fundamental_weights(st)
    return tuple(sum((m * w[t] for m, w in zip(marks, fw) if m), Q(0))
                 for t in range(len(fw[0])))


def fraction_weyl_dim(st, marks) -> Q:
    """Weyl's dimension formula ∏ (λ+ρ, β)/(ρ, β) on ε-vectors."""
    _, inner = fraction_form(st)
    lam_rho = fraction_weight_vec(st, [m + 1 for m in marks])
    rho = fraction_weight_vec(st, (1,) * st.rank)
    num = den = Q(1)
    for b in fraction_root_data(st)[0]:
        num *= inner(lam_rho, b)
        den *= inner(rho, b)
    return num / den


def weyl_orbit(marks, sys) -> frozenset:
    """All distinct images of a weight under the Weyl group, as mark tuples.

    Breadth-first closure under simple reflections acting on marks:
    s_i(m) = m - m[i] * (column i of the Cartan matrix).
    """
    n = sys.type.rank
    cols = [tuple(sys.cartan[j][i] for j in range(n)) for i in range(n)]
    start = tuple(marks)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(n):
                mi = m[i]
                if mi == 0:
                    continue
                img = tuple(x - mi * c for x, c in zip(m, cols[i]))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def weyl_group_order(st) -> int:
    """|W| from the closed forms of the classical families and the table of
    the exceptional ones."""
    fam, n = st.family, st.rank
    if fam == "A":
        return factorial(n + 1)
    if fam in "BC":
        return (2 ** n) * factorial(n)
    if fam == "D":
        return (2 ** (n - 1)) * factorial(n)
    return {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
            ("F", 4): 1152, ("G", 2): 12}[(fam, n)]


def fraction_secant_orbit_reps(marks, st, orbit) -> list:
    """[(inner product, partner marks)] per class of pairs (λ, wλ), w not
    the identity, with the form taken on ε-vectors; sorted by decreasing
    inner product, the partner the largest marks in its class.  `orbit` is
    the Weyl orbit of the marks, as mark tuples."""
    _, inner = fraction_form(st)
    marks = tuple(marks)
    lam = fraction_weight_vec(st, marks)
    # (λ, μ) = Σ_j μ_j (λ, π_j)
    lam_fw = [inner(lam, w) for w in fraction_fundamental_weights(st)]
    best: dict = {}
    for mu in sorted(orbit, reverse=True):
        if mu == marks and len(orbit) == weyl_group_order(st):
            continue
        best.setdefault(sum((m * x for m, x in zip(mu, lam_fw) if m), Q(0)),
                        mu)
    return [(v, best[v]) for v in sorted(best, reverse=True)]


def fraction_structure_constants(st) -> dict:
    """N(a, b) keyed by pairs of ε-vectors, with Fraction ratios of
    squared lengths."""
    pos, coeffs, _, _ = fraction_root_data(st)
    pidx = {r: i for i, r in enumerate(pos)}
    roots = coeffs.keys()
    _, inner = fraction_form(st)

    def height(r) -> int:
        return sum(coeffs[r])

    def string_down(a, b) -> int:
        k = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while cur in roots:
            k += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return k

    table: dict = {}

    def npos(a, b) -> int:
        if pidx[a] < pidx[b]:
            return table[(a, b)]
        return -table[(b, a)]

    def nval(a, b) -> Q:
        ha = height(a)
        hb = height(b)
        if ha > 0 and hb > 0:
            return Q(npos(a, b))
        if ha < 0 and hb < 0:
            return -Q(npos(tuple(-x for x in a), tuple(-x for x in b)))
        if ha < 0:
            return -nval(b, a)
        xi, mu = a, tuple(-x for x in b)
        nu = tuple(p + q for p, q in zip(a, b))
        if height(nu) > 0:
            return -inner(nu, nu) / inner(xi, xi) * npos(mu, nu)
        rho = tuple(-x for x in nu)
        return -inner(rho, rho) / inner(mu, mu) * npos(xi, rho)

    by_height: dict = {}
    for g in pos:
        by_height.setdefault(height(g), []).append(g)
    for h in sorted(by_height):
        if h < 2:
            continue
        for g in by_height[h]:
            specials = []
            for a in pos:
                if pidx[a] >= pidx[g]:
                    break
                b = tuple(x - y for x, y in zip(g, a))
                if b in roots and height(b) > 0 and pidx[a] < pidx[b]:
                    specials.append((a, b))
            specials.sort(key=lambda p: pidx[p[0]])
            a1, b1 = specials[0]
            n11 = string_down(a1, b1) + 1
            table[(a1, b1)] = n11
            for a, b in specials[1:]:
                na = tuple(-x for x in a)
                d1 = tuple(x - y for x, y in zip(b1, a))
                d2 = tuple(x - y for x, y in zip(a1, a))
                t = Q(0)
                if d1 in roots:
                    t += nval(b1, na) * nval(d1, a1)
                if d2 in roots:
                    t += nval(na, a1) * nval(d2, b1)
                val = inner(g, g) / inner(b, b) * t / n11
                assert val.denominator == 1 and val != 0
                table[(a, b)] = int(val)

    full: dict = {}
    for a in roots:
        for b in roots:
            s = tuple(p + q for p, q in zip(a, b))
            if s in roots:
                v = nval(a, b)
                assert v.denominator == 1 and v != 0
                full[(a, b)] = int(v)
    return full


_CASES = {(4, 4): "a", (4, 2): "b", (4, 0): "c", (2, 1): "d", (2, 0): "e",
          (0, 0): "f"}


def fraction_coform_of_operator(A, G) -> list:
    """The coform W = A G^{-1} as a Fraction matrix product."""
    return matmul(A, inverse(G))


def random_so_conjugate(A, G, rng) -> tuple:
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


def fraction_skew_im_stats(omega, sym) -> tuple:
    """(dim Im, rank of the form on Im) by rational elimination."""
    rref, pivots = row_reduce(transpose(omega))
    basis = rref[:len(pivots)]  # spans the column space of omega
    if not basis:
        return 0, 0
    gram = matmul(matmul(basis, sym), transpose(basis))
    return len(basis), len(row_reduce(gram)[1])


def fraction_isotropic_pair_case(x1, x2, y1, y2, sym) -> str:
    n = len(sym)
    w = [[Q(x1[i]) * x2[j] - Q(x2[i]) * x1[j]
          + Q(y1[i]) * y2[j] - Q(y2[i]) * y1[j]
          for j in range(n)] for i in range(n)]
    return _CASES[fraction_skew_im_stats(w, sym)]


def fraction_sample_isotropic_plane(n: int, rng, bound: int = 9) -> tuple:
    """Two vectors spanning an isotropic plane for the split form, built
    coordinate by coordinate in Fractions; same draws from `rng` as
    `secant.chevalley.sample_isotropic_plane`."""
    m = n // 2
    extra = n % 2
    if m < 3:
        raise ValueError("need at least 3 hyperbolic pairs to sample planes")

    def assemble(p, q, w):
        v = []
        for i in range(m):
            v.extend((p[i], q[i]))
        v.extend(w)
        return tuple(v)

    while True:
        p = [Q(rng.randint(-bound, bound)) for _ in range(m)]
        if not p[0]:
            continue
        w = [Q(rng.randint(-bound, bound)) for _ in range(extra)]
        q = [Q(rng.randint(-bound, bound)) for _ in range(m)]
        # (u,u) = 2 sum p_i q_i + sum w_j^2 = 0, solved for q_0
        q[0] = -(sum(p[i] * q[i] for i in range(1, m))
                 + sum((x * x for x in w), Q(0)) / 2) / p[0]
        u = assemble(p, q, w)

        r = [Q(rng.randint(-bound, bound)) for _ in range(m)]
        z = [Q(rng.randint(-bound, bound)) for _ in range(extra)]
        s = [Q(rng.randint(-bound, bound)) for _ in range(m)]
        det = r[0] * p[1] - r[1] * p[0]
        if not det:
            continue
        # (v,v) = 0 and (u,v) = 0, solved for s_0, s_1
        c1 = -(sum(r[i] * s[i] for i in range(2, m))
               + sum((x * x for x in z), Q(0)) / 2)
        c2 = -(sum(p[i] * s[i] for i in range(2, m))
               + sum(q[i] * r[i] for i in range(m))
               + sum((a * b for a, b in zip(w, z)), Q(0)))
        s[0] = (c1 * p[1] - c2 * r[1]) / det
        s[1] = (r[0] * c2 - p[0] * c1) / det
        v = assemble(r, s, z)
        if len(row_reduce([list(u), list(v)])[1]) != 2:
            continue
        return u, v
