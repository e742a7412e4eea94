from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from secant.chevalley import (
    _structure_constants,
    adjoint_pair_classes,
    build_chevalley,
    coform_of_operator,
    e7_wild_witness,
    exp_ad_apply,
    grade_by_fundamental,
    isotropic_pair_case,
    orbit_dim,
    partition_im_stats,
    sample_isotropic_plane,
    skew_im_stats,
    so_nilpotent_realization,
)
from lie_reference import (
    ALL_TYPES,
    fraction_coform_of_operator,
    fraction_coroot_pairing,
    fraction_form,
    fraction_isotropic_pair_case,
    fraction_root_data,
    fraction_sample_isotropic_plane,
    fraction_secant_orbit_reps,
    fraction_structure_constants,
    random_so_conjugate,
    weyl_orbit,
)
from linalg_reference import transpose
from secant.linalg import rank, split_symmetric_form
from secant.rootsys import CapExceeded, SimpleType, build_root_system


def jacobi_defect(alg, i, j, k):
    a = alg.bracket(alg.bracket({i: 1}, {j: 1}), {k: 1})
    b = alg.bracket(alg.bracket({j: 1}, {k: 1}), {i: 1})
    c = alg.bracket(alg.bracket({k: 1}, {i: 1}), {j: 1})
    tot: dict = {}
    for d in (a, b, c):
        for key, v in d.items():
            tot[key] = tot.get(key, 0) + v
    return {k2: v for k2, v in tot.items() if v}


def test_sl2_relations():
    alg = build_chevalley(SimpleType("A", 1))
    assert alg.dim == 3
    e, f, h = {1: 1}, {2: 1}, {0: 1}
    assert alg.bracket(e, f) == {0: 1}
    assert alg.bracket(h, e) == {1: 2}
    assert alg.bracket(h, f) == {2: -2}
    assert alg.bracket(e, e) == {}


@pytest.mark.parametrize("fam,n,dim", [
    ("A", 2, 8), ("G", 2, 14), ("B", 3, 21), ("C", 3, 21),
    ("D", 4, 28), ("F", 4, 52), ("E", 6, 78), ("E", 7, 133), ("E", 8, 248),
])
def test_dimensions(fam, n, dim):
    assert build_chevalley(SimpleType(fam, n)).dim == dim


def test_rank_cap():
    with pytest.raises(CapExceeded):
        build_chevalley(SimpleType("A", 9))
    with pytest.raises(ValueError, match="no root system"):
        build_chevalley(SimpleType("E", 9))


@pytest.mark.parametrize("fam,n", [
    ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
])
def test_jacobi_exhaustive(fam, n):
    alg = build_chevalley(SimpleType(fam, n))
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        assert not jacobi_defect(alg, i, j, k), (fam, n, i, j, k)


def test_jacobi_exhaustive_f4():
    alg = build_chevalley(SimpleType("F", 4))
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        assert not jacobi_defect(alg, i, j, k), (i, j, k)


@pytest.mark.parametrize("fam,n,count", [
    ("A", 4, 4000), ("B", 4, 4000), ("C", 4, 4000),
    ("E", 6, 4000), ("E", 7, 4000), ("E", 8, 4000),
])
def test_jacobi_random(fam, n, count):
    alg = build_chevalley(SimpleType(fam, n))
    rng = random.Random(fam + str(n))
    for _ in range(count):
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        assert not jacobi_defect(alg, i, j, k), (fam, n, i, j, k)


def _coeff_constants(st_):
    """The constants N(a, b) keyed by coefficient tuples: the root indices
    of `_structure_constants` mapped through `root_list`, each checked to
    name a + b as its sum."""
    rl = build_chevalley(st_).root_list
    out = {}
    for (a, b), (c, v) in _structure_constants(build_root_system(st_)).items():
        assert rl[c] == tuple(p + q for p, q in zip(rl[a], rl[b]))
        out[(rl[a], rl[b])] = v
    return out


@pytest.mark.parametrize("fam,n", [
    ("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 4),
])
def test_structure_constant_magnitudes(fam, n):
    # every constant has magnitude p+1, the descending root-string length
    sysm = build_root_system(SimpleType(fam, n))
    constants = _coeff_constants(SimpleType(fam, n))
    roots = set(sysm.positive_coeffs) | {
        tuple(-x for x in r) for r in sysm.positive_coeffs}
    for a in roots:
        for b in roots:
            s = tuple(p + q for p, q in zip(a, b))
            if s in roots:
                k = 0
                cur = tuple(x - y for x, y in zip(b, a))
                while cur in roots:
                    k += 1
                    cur = tuple(x - y for x, y in zip(cur, a))
                assert abs(constants[(a, b)]) == k + 1, (a, b)


def _by_coeffs(coeffs, constants):
    return {(coeffs[a], coeffs[b]): v for (a, b), v in constants.items()}


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_structure_constants_match_fraction_reference(st_):
    _, coeffs, _, _ = fraction_root_data(st_)
    ref = fraction_structure_constants(st_)
    alg = build_chevalley(st_)
    assert _coeff_constants(st_) == _by_coeffs(coeffs, ref)
    # the bracket of two basis vectors, from the reference constants and
    # the rational form on ε-vectors
    simple, inner = fraction_form(st_)
    eps = {c: r for r, c in coeffs.items()}
    l = st_.rank
    for k, r in enumerate(alg.root_list):
        for i in range(l):
            c = fraction_coroot_pairing(st_, eps[r], i)
            assert alg.bracket({i: 1}, {l + k: 1}) == ({l + k: c} if c else {})
    for i, a in enumerate(alg.root_list):
        ea = eps[a]
        coroot = {t: m * inner(simple[t], simple[t]) / inner(ea, ea)
                  for t, m in enumerate(a) if m}
        for j, b in enumerate(alg.root_list):
            s = tuple(p + q for p, q in zip(ea, eps[b]))
            if s in coeffs:
                want = {alg.root_basis_index(coeffs[s]): ref[(ea, eps[b])]}
            else:
                want = {} if any(s) else coroot
            assert alg.bracket({l + i: 1}, {l + j: 1}) == want


def test_antisymmetry_of_constants():
    constants = _coeff_constants(SimpleType("C", 3))
    for (a, b), v in constants.items():
        assert constants[(b, a)] == -v
        na = tuple(-x for x in a)
        nb = tuple(-x for x in b)
        assert constants[(na, nb)] == -v


def test_cartan_acts_diagonally():
    st_ = SimpleType("B", 3)
    alg = build_chevalley(st_)
    eps = {c: r for r, c in fraction_root_data(st_)[1].items()}
    l = alg.type.rank
    for k, r in enumerate(alg.root_list):
        for i in range(l):
            got = alg.bracket({i: 1}, {l + k: 1})
            expect = int(fraction_coroot_pairing(st_, eps[r], i))
            assert got == ({l + k: expect} if expect else {})



def test_grading_partitions_basis():
    alg = build_chevalley(SimpleType("A", 2))
    g = grade_by_fundamental(alg, 1)
    # independent count: degree = first simple-root coefficient of each
    # root of the ε-coordinate reference
    expect = Counter()
    expect[0] = alg.type.rank
    for c in fraction_root_data(alg.type)[1].values():
        expect[c[0]] += 1
    assert g.dims == dict(expect)
    assert g.dims == {-1: 2, 0: 4, 1: 2}
    assert g.total_dim == alg.dim
    with pytest.raises(ValueError):
        grade_by_fundamental(alg, 0)
    with pytest.raises(ValueError):
        grade_by_fundamental(alg, 3)


def test_e8_grading_dims():
    alg = build_chevalley(SimpleType("E", 8))
    g = grade_by_fundamental(alg, 1)
    assert {d: g.dims[d] for d in sorted(g.dims)} == \
        {-2: 1, -1: 56, 0: 134, 1: 56, 2: 1}
    assert tuple(sorted(g.components)) == (-2, -1, 0, 1, 2)


def test_orbit_dim_basics():
    a1 = build_chevalley(SimpleType("A", 1))
    assert orbit_dim(a1, {1: 1}) == 2  # nilpotent cone of sl2
    assert orbit_dim(a1, {}) == 0
    assert orbit_dim(a1, {0: 1}) == 2  # regular semisimple
    # scaling does not change the orbit dimension
    assert orbit_dim(a1, {1: Q(3, 7)}) == 2


def test_orbit_dim_conjugation_invariance():
    alg = build_chevalley(SimpleType("A", 3))
    l = alg.type.rank
    x = {l + 0: 1, l + 5: 1}
    base = orbit_dim(alg, x)
    rng = random.Random(3)
    for _ in range(8):
        k = rng.randrange(len(alg.root_list))
        y = exp_ad_apply(alg, {l + k: 1}, x)
        assert orbit_dim(alg, y) == base


def test_witness_report():
    rep = e7_wild_witness()
    assert rep.single_dim == 58
    assert dict(sorted(rep.pair_dims.items())) == {-1: 114, 0: 92, 1: 58, 2: 58}
    assert rep.witness_dim == 112
    # the quadruple forms a D4 diagram: norms 2, center pairing -1, arms
    # orthogonal
    simple, inner = fraction_form(SimpleType("E", 8))
    vecs = [tuple(sum((c * a[t] for c, a in zip(coeffs, simple)), Q(0))
                  for t in range(len(simple[0])))
            for coeffs in rep.quadruple]
    center, arms = vecs[0], vecs[1:]
    assert inner(center, center) == 2
    for a in arms:
        assert inner(a, a) == 2
        assert inner(center, a) == -1
    for a, b in itertools.combinations(arms, 2):
        assert inner(a, b) == 0
    # report is JSON-shaped
    d = rep.as_dict()
    assert d["witness_dim"] == 112 and len(d["quadruple"]) == 4


PARTITIONS_13 = [
    ((3, 3, 1, 1, 1, 1, 1, 1, 1), (4, 2)),
    ((3, 2, 2, 1, 1, 1, 1, 1, 1), (4, 1)),
    ((2, 2, 2, 2, 1, 1, 1, 1, 1), (4, 0)),
    ((3,) + (1,) * 10, (2, 1)),
    ((2, 2) + (1,) * 9, (2, 0)),
]


@pytest.mark.parametrize("parts,expected", PARTITIONS_13)
def test_partition_im_stats(parts, expected):
    assert partition_im_stats(parts) == expected


def test_partition_im_stats_edges():
    assert partition_im_stats((1,) * 9) == (0, 0)
    assert partition_im_stats((5, 1, 1)) == (4, 3)
    with pytest.raises(ValueError):
        partition_im_stats((1, 2))
    with pytest.raises(ValueError):
        partition_im_stats((2, 0))


def jordan_type(A):
    """Partition of a nilpotent matrix from the ranks of its powers."""
    n = len(A)
    ranks = [n]
    M = [[Q(x) for x in row] for row in A]
    P = [row[:] for row in M]
    while True:
        r = rank(P)
        ranks.append(r)
        if r == 0:
            break
        P = [[sum(P[i][k] * M[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    # number of blocks of size >= k is ranks[k-1] - ranks[k]
    sizes = []
    for k in range(1, len(ranks)):
        sizes.append(ranks[k - 1] - ranks[k])
    parts = []
    for d in range(len(sizes), 0, -1):
        parts.extend([d] * (sizes[d - 1] - (sizes[d] if d < len(sizes) else 0)))
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize("parts,expected", PARTITIONS_13)
def test_so_nilpotent_realization(parts, expected):
    A, G = so_nilpotent_realization(parts)
    n = len(A)
    assert sum(parts) == n
    # A is G-skew
    for i in range(n):
        for j in range(n):
            assert sum(A[k][i] * G[k][j] for k in range(n)) + \
                sum(G[i][k] * A[k][j] for k in range(n)) == 0
    assert jordan_type(A) == tuple(sorted(parts, reverse=True))
    W = coform_of_operator(A, G)
    assert skew_im_stats(W, G) == expected


def test_so_realization_rejects_odd_even_multiplicity():
    with pytest.raises(ValueError):
        so_nilpotent_realization((2, 1, 1))
    so_nilpotent_realization((2, 2, 1))  # fine


def test_randomized_realizations_keep_stats():
    rng = random.Random(11)
    for parts, expected in PARTITIONS_13[:3]:
        A, G = so_nilpotent_realization(parts)
        for _ in range(4):
            A2, G2 = random_so_conjugate(A, G, rng)
            W2 = coform_of_operator(A2, G2)
            assert skew_im_stats(W2, G2) == expected


@pytest.mark.parametrize("parts,expected", PARTITIONS_13)
def test_coform_of_operator_matches_fraction_reference(parts, expected):
    A, G = so_nilpotent_realization(parts)
    W = coform_of_operator(A, G)
    assert all(type(x) is int for row in W for x in row)
    assert W == fraction_coform_of_operator(A, G)
    # rational inputs: a transported pair and a rescaled form, where some
    # entries stay Fractions; each entry is in the exact-scalar normal form
    rng = random.Random(sum(parts) * 100 + len(parts))
    A2, G2 = random_so_conjugate(A, G, rng)
    half = [[Q(x, 2) for x in row] for row in G]
    third = [[x / 3 for x in row] for row in A2]
    for a, g in ((A2, G2), (A, half), (third, G2)):
        W = coform_of_operator(a, g)
        assert W == fraction_coform_of_operator(a, g)
        assert all(type(x) is int or (type(x) is Q and x.denominator > 1)
                   for row in W for x in row)


def test_coform_of_operator_rejects_non_skew_operator():
    A, _ = so_nilpotent_realization((3,) + (1,) * 10)
    identity = [[int(i == j) for j in range(13)] for i in range(13)]
    with pytest.raises(ValueError, match="operator is not skew for this form"):
        coform_of_operator(A, identity)
    with pytest.raises(ValueError, match="operator is not skew for this form"):
        coform_of_operator([[Q(1, 2), 0], [0, 0]], [[0, 1], [1, 0]])


def test_skew_im_stats_validation():
    G = split_symmetric_form(4)
    with pytest.raises(ValueError):
        skew_im_stats([[0, 1], [1, 0]], [[1, 0], [0, 1]])  # not skew
    with pytest.raises(ValueError):
        skew_im_stats([[0, 1], [-1, 0]], [[1, 0], [0, 0]])  # degenerate form
    assert skew_im_stats([[0, 0], [0, 0]], [[1, 0], [0, 1]]) == (0, 0)
    W = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert skew_im_stats(W, G) == (2, 2)


def hyperbolic_vec(n, **coords):
    v = [Q(0)] * n
    for name, c in coords.items():
        kind, idx = name[0], int(name[1:]) - 1
        v[2 * idx + (0 if kind == "a" else 1)] = Q(c)
    return tuple(v)


def test_isotropic_pair_cases_constructed():
    n = 12
    G = split_symmetric_form(n)
    a1 = hyperbolic_vec(n, a1=1)
    a2 = hyperbolic_vec(n, a2=1)
    a3 = hyperbolic_vec(n, a3=1)
    a4 = hyperbolic_vec(n, a4=1)
    b1 = hyperbolic_vec(n, b1=1)
    b2 = hyperbolic_vec(n, b2=1)
    assert isotropic_pair_case(a1, a2, b1, b2, G) == "a"
    assert isotropic_pair_case(a1, a2, b1, a3, G) == "b"
    assert isotropic_pair_case(a1, a2, a3, a4, G) == "c"
    assert isotropic_pair_case(a1, a2, b2, a1, G) == "d"
    assert isotropic_pair_case(a1, a2, a1, a3, G) == "e"
    assert isotropic_pair_case(a1, a2, a2, a1, G) == "f"
    with pytest.raises(ValueError, match="plane is not isotropic"):
        isotropic_pair_case(a1, b1, a3, a4, G)
    with pytest.raises(ValueError, match="do not span a 2-plane"):
        isotropic_pair_case(a1, a1, a3, a4, G)
    # a rational change of basis, with the form transported along, keeps
    # every label
    rng = random.Random(318)
    for _ in range(4):
        for vectors, label in _case_templates(n):
            moved, form = _transport(vectors, G, rng)
            assert isotropic_pair_case(*moved, form) == label


def _case_templates(n):
    """The six constructed pairs (x1, x2, y1, y2) of isotropic planes in the
    split space of dimension n >= 8, with their case labels."""
    a1, a2, a3, a4 = (hyperbolic_vec(n, **{"a%d" % i: 1}) for i in range(1, 5))
    b1, b2 = hyperbolic_vec(n, b1=1), hyperbolic_vec(n, b2=1)
    return [((a1, a2, b1, b2), "a"), ((a1, a2, b1, a3), "b"),
            ((a1, a2, a3, a4), "c"), ((a1, a2, b2, a1), "d"),
            ((a1, a2, a1, a3), "e"), ((a1, a2, a2, a1), "f")]


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _transport(vectors, form, rng):
    """Vectors v -> P v and the integer form G -> P^-T G P^-1 for a seeded
    rational P = D U: U a product of integer elementary row operations,
    with U^-1 built alongside from the inverse operations, and D a
    diagonal of rationals."""
    n = len(form)
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]  # (I + c E_ij) U
        for row in Uinv:  # U^-1 (I - c E_ij)
            row[j] -= c * row[i]
    assert _int_matmul(U, Uinv) == [[int(i == j) for j in range(n)]
                                    for i in range(n)]
    d = [Q(rng.choice([1, 2, 3]), rng.choice([1, 2, 5])) for _ in range(n)]
    moved = [tuple(di * sum(u * x for u, x in zip(row, v) if u)
                   for di, row in zip(d, U)) for v in vectors]
    m = _int_matmul(transpose(Uinv), _int_matmul(form, Uinv))
    return moved, [[Q(x) / (d[i] * d[j]) for j, x in enumerate(row)]
                   for i, row in enumerate(m)]


def test_isotropic_pair_case_matches_fraction_reference():
    # 500 seeded pairs over every case: constructed pairs with each plane
    # re-spanned by a determinant-1 change (which keeps the coform), or two
    # sampled planes (case a), moved through a rational change of basis;
    # the form is rational after the move
    n = 12
    G = split_symmetric_form(n)
    templates = _case_templates(n)
    seen = Counter()
    for seed in range(500):
        rng = random.Random("pair-reference/%d" % seed)
        if seed % 7 == 6:
            vectors = sample_isotropic_plane(n, rng) + \
                sample_isotropic_plane(n, rng)
            label = "a"
        else:
            (x1, x2, y1, y2), label = templates[seed % 7]
            s, r = (Q(rng.randint(1, 4), rng.randint(1, 3)) for _ in "sr")
            t = rng.randint(-2, 2)
            vectors = (tuple((u + t * v) / s for u, v in zip(x1, x2)),
                       tuple(s * v for v in x2), tuple(r * u for u in y1),
                       tuple((v - t * u) / r for u, v in zip(y1, y2)))
        moved, form = _transport(vectors, G, rng)
        got = isotropic_pair_case(*moved, form)
        assert got == fraction_isotropic_pair_case(*moved, form) == label
        seen[got] += 1
    assert set(seen) == set("abcdef")
    # a plane paired with itself: (x1, x2, x2, x1) cancels, (x1, x2, x1, x2)
    # doubles, and a re-spanning (x1 + t x2, s x2) gives (1 + s) x1^x2;
    # these take the branch that builds the coform, also under a moved form
    rng = random.Random(64)
    for _ in range(20):
        x1, x2 = sample_isotropic_plane(n, rng)
        t, s = rng.randint(-2, 2), rng.choice([-1, 1, 2])
        respan = (x1, x2, tuple(u + t * v for u, v in zip(x1, x2)),
                  tuple(s * v for v in x2))
        for vectors, label in (((x1, x2, x2, x1), "f"),
                               ((x1, x2, x1, x2), "e"),
                               (respan, "f" if s == -1 else "e")):
            for moved, form in ((vectors, G), _transport(vectors, G, rng)):
                assert isotropic_pair_case(*moved, form) == label
                assert fraction_isotropic_pair_case(*moved, form) == label


def test_isotropic_pair_case_errors():
    # the planes' checks come before the form's, on both branches
    n = 12
    a1, a2, a3, a4 = (hyperbolic_vec(n, **{"a%d" % i: 1}) for i in range(1, 5))
    b1, b3 = hyperbolic_vec(n, b1=1), hyperbolic_vec(n, b3=1)
    b2 = hyperbolic_vec(n, b2=1)
    G = split_symmetric_form(n)
    skewed = [row[:] for row in G]  # not symmetric, away from the planes
    skewed[10][11] += 1
    degenerate = [row[:] for row in G]  # the sixth hyperbolic pair dropped
    degenerate[10][11] = degenerate[11][10] = 0
    not_isotropic = "input plane is not isotropic"
    not_a_plane = "input vectors do not span a 2-plane"
    with pytest.raises(ValueError, match=not_isotropic):
        isotropic_pair_case(a1, a2, a3, b3, G)
    with pytest.raises(ValueError, match=not_a_plane):
        isotropic_pair_case(a1, a2, a3, a3, G)
    # four independent vectors, then three
    for vectors, label in (((a1, a2, b1, b2), "a"), ((a1, a2, a1, a3), "e")):
        assert isotropic_pair_case(*vectors, G) == label
        with pytest.raises(ValueError, match="form matrix is not symmetric"):
            isotropic_pair_case(*vectors, skewed)
        with pytest.raises(ValueError, match="symmetric form is degenerate"):
            isotropic_pair_case(*vectors, degenerate)
    for form in (skewed, degenerate):
        for vectors, message in (((a1, b1, a3, a4), not_isotropic),
                                 ((a1, a2, b3, a3), not_isotropic),
                                 ((a1, b1, a1, a3), not_isotropic),
                                 ((a1, a1, a3, a4), not_a_plane)):
            with pytest.raises(ValueError, match=message):
                isotropic_pair_case(*vectors, form)


def _hyperbolic_pair(n):
    """The case-a pair (a1, a2, b1, b2) of `_case_templates`."""
    return _case_templates(n)[0][0]


@pytest.mark.parametrize("call,message", [
    (lambda: skew_im_stats([[0, 1, 2], [-1, 0, 3]], [[1, 0], [0, 1]]),
     "coform matrix is 2x3, the ambient form is 2x2"),
    (lambda: skew_im_stats([[0, 1], [-1, 0]], split_symmetric_form(3)),
     "coform matrix is 2x2, the ambient form is 3x3"),
    (lambda: isotropic_pair_case(
        *_hyperbolic_pair(12), [row[:11] for row in split_symmetric_form(12)]),
     "ambient form matrix is not square: 12 rows of length 11"),
    (lambda: isotropic_pair_case(
        *(v[:11] for v in _hyperbolic_pair(12)), split_symmetric_form(12)),
     "input vectors have 11 coordinates, the ambient form is 12x12"),
    (lambda: isotropic_pair_case(*_hyperbolic_pair(12),
                                 split_symmetric_form(13)),
     "input vectors have 12 coordinates, the ambient form is 13x13"),
    (lambda: isotropic_pair_case(*_hyperbolic_pair(12)[:3], (Q(0),) * 11,
                                 split_symmetric_form(12)),
     "ragged matrix"),
    (lambda: isotropic_pair_case(*_hyperbolic_pair(12),
                                 split_symmetric_form(12)[:11] + [[0]]),
     "ragged matrix"),
], ids=["coform-not-square", "coform-size", "form-not-square",
        "short-vectors", "long-form", "ragged-vectors", "ragged-form"])
def test_coform_statistics_check_sizes(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_isotropic_pair_case_refuses_float_coordinates():
    x1, x2, y1, y2 = _hyperbolic_pair(12)
    G = split_symmetric_form(12)
    assert isotropic_pair_case(x1, x2, y1, y2, G) == "a"
    with pytest.raises(TypeError, match="inexact float coordinate 0.5"):
        isotropic_pair_case((0.5,) + x1[1:], x2, y1, y2, G)
    # a float form equal in value to the cached integer form is refused too
    with pytest.raises(TypeError, match="inexact float coordinate"):
        isotropic_pair_case(x1, x2, y1, y2,
                            [[float(x) for x in row] for row in G])


def test_prepared_form_cache_cannot_leak():
    from secant.chevalley import _prepared_form

    n = 12
    vectors = _hyperbolic_pair(n)
    G = split_symmetric_form(n)
    skewed = [row[:] for row in G]  # as in test_isotropic_pair_case_errors
    skewed[10][11] += 1
    degenerate = [row[:] for row in G]
    degenerate[10][11] = degenerate[11][10] = 0
    assert isotropic_pair_case(*vectors, G) == "a"
    for _ in range(2):  # a failed check is never remembered as passed
        with pytest.raises(ValueError, match="form matrix is not symmetric"):
            isotropic_pair_case(*vectors, skewed)
        with pytest.raises(ValueError, match="symmetric form is degenerate"):
            isotropic_pair_case(*vectors, degenerate)
        with pytest.raises(ValueError, match="symmetric form is degenerate"):
            skew_im_stats([[0] * n] * n, degenerate)
    assert isotropic_pair_case(*vectors, G) == "a"
    # the caller's list edited in place is looked up as a new form
    form = [row[:] for row in G]
    assert isotropic_pair_case(*vectors, form) == "a"
    form[10][11] = form[11][10] = 0
    with pytest.raises(ValueError, match="symmetric form is degenerate"):
        isotropic_pair_case(*vectors, form)
    # distinct forms beyond the cache's size only evict
    rng = random.Random("prepared-forms")
    templates = _case_templates(8)
    seen = set()
    misses = _prepared_form.cache_info().misses
    for i in range(500):
        vectors, label = templates[i % len(templates)]
        moved, form = _transport(vectors, split_symmetric_form(8), rng)
        assert isotropic_pair_case(*moved, form) == label
        seen.add(tuple(map(tuple, form)))
    info = _prepared_form.cache_info()
    assert len(seen) == info.misses - misses == 500
    assert info.currsize <= info.maxsize


def test_isotropic_pair_sampling_stays_in_table():
    rng = random.Random(5)
    for n in (10, 13):
        G = split_symmetric_form(n)
        cases = Counter()
        for _ in range(150):
            x1, x2 = sample_isotropic_plane(n, rng)
            y1, y2 = sample_isotropic_plane(n, rng)
            cases[isotropic_pair_case(x1, x2, y1, y2, G)] += 1
        assert set(cases) <= set("abcdef")
        # random disjoint planes are overwhelmingly in the dim-4 rows
        assert set(cases) <= {"a", "b", "c"}


def test_sampled_planes_are_isotropic():
    rng = random.Random(9)
    n = 11
    G = split_symmetric_form(n)
    for _ in range(40):
        u, v = sample_isotropic_plane(n, rng)
        for x in (u, v):
            assert sum(Q(x[i]) * G[i][j] * x[j]
                       for i in range(n) for j in range(n)) == 0
        assert sum(Q(u[i]) * G[i][j] * v[j]
                   for i in range(n) for j in range(n)) == 0
        assert rank([list(u), list(v)]) == 2


def test_sample_isotropic_plane_matches_fraction_reference():
    # same draws, equal vectors; integral coordinates come back as ints
    for n in (7, 8, 13):
        for seed in range(500):
            rng = random.Random("plane/%d/%d" % (n, seed))
            ref_rng = random.Random("plane/%d/%d" % (n, seed))
            got = sample_isotropic_plane(n, rng)
            assert got == fraction_sample_isotropic_plane(n, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            for x in got[0] + got[1]:
                assert type(x) is int or (type(x) is Q and x.denominator > 1)


def test_secant_orbit_reps():
    # the ε-coordinate reference on fundamental weights, which the library
    # no longer handles, and the library's adjoint classes on E8
    def reps(st_, marks):
        sys = build_root_system(st_)
        return fraction_secant_orbit_reps(marks, st_, weyl_orbit(marks, sys))

    assert reps(SimpleType("A", 1), (1,)) == [(Q(-1, 2), (-1,))]

    b2 = reps(SimpleType("B", 2), (1, 0))
    assert [v for v, _ in b2] == [1, 0, -1]
    assert b2[0][1] == (1, 0)
    assert b2[-1][1] == (-1, 0)

    e8 = build_chevalley(SimpleType("E", 8))
    classes = adjoint_pair_classes(e8)
    assert sorted(classes, reverse=True) == [2, 1, 0, -1, -2]
    # deterministic
    assert adjoint_pair_classes(e8) == classes
