"""Tests for the finite-field exhaustive oracle."""

import functools
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secant.linalg import _BLOCK, int_rank, modp_rank
from secant.oracle import (
    AMBIENT_CAP,
    PointSet,
    RankTable,
    SubspaceCodec,
    bfs_rank_table,
    decode_array,
    decode_vec,
    encode_array,
    encode_vec,
    enumerate_cone_points,
    f2_pure_spinor_set,
    family_dim,
    levi_projection_test,
    mirror_symplectic_form,
    parse_family,
    rank_table,
    split_quadric_value,
    tangent_probe,
    tensor222_check,
    wedge3_f2_report,
    wedge3_tr2_poly,
    wedge3_tr2_values,
)
from secant.oracle import (  # noqa: internals
    _FAMILIES,
    _HADAMARD_PRIME,
    _closed_form,
    _composite_batch,
    _digit_add_rows,
    _divisor_ranks,
    _family,
)
from secant.ranks import (
    WEDGE3_TRIPLES,
    _divisor_matrix,
    _wedge_rows,
    purity_quadric_table,
    wedge3_quartic,
)
from secant.rootsys import CapExceeded

import oracle_reference
import secant.oracle as orc
from oracle_reference import CLOSED_FORM, GENERATORS, MEMBER, POINTS

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "wedge3_f2_fixture.json")


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def matrix_rank_count(m, n, r, q):
    """m x n matrices of rank r over F_q:
    prod_{i<r} (q^m - q^i)(q^n - q^i) / (q^r - q^i)."""
    num = den = 1
    for i in range(r):
        num *= (q ** m - q ** i) * (q ** n - q ** i)
        den *= q ** r - q ** i
    assert num % den == 0
    return num // den


def reference_ranks(reps, p, d):
    """Additive ranks by a plain BFS over digit tuples: layer r holds the
    sums of a layer r-1 vector and a nonzero multiple of a representative
    that no earlier layer holds.  Returns the ranks in code order."""
    def digits(code):
        return tuple(code // p ** i % p for i in range(d))

    cone = {tuple(c * v % p for v in digits(code))
            for code in reps for c in range(1, p)}
    rank = {(0,) * d: 0}
    layer = [(0,) * d]
    while layer:
        nxt = []
        for vec in layer:
            for s in cone:
                w = tuple((a + b) % p for a, b in zip(vec, s))
                if w not in rank:
                    rank[w] = rank[vec] + 1
                    nxt.append(w)
        layer = nxt
    return [rank[digits(code)] for code in range(p ** d)]


#: Families whose grouped BFS is compared byte for byte with the
#: step-at-a-time reference: pushes of one and of many groups, pulls whose
#: windows finish early and late, F_2 and odd primes.
STEPWISE_FAMILIES = [("segre-3x4", 3), ("segre-3x3", 3), ("quadric-8", 3),
                     ("quadric-8", 5), ("gr3-6", 2), ("spinor10", 2),
                     ("segre-2x2x2", 3), ("veronese2-3", 7),
                     ("segre-2x2x2", 5)]


@functools.lru_cache(maxsize=None)
def stepwise_table(family, p):
    """The cone points of a family and their step-at-a-time rank bytes."""
    pts = enumerate_cone_points(family, p)
    return pts, oracle_reference.bfs_rank_table(pts)


class TestFamilies:
    def test_dims(self):
        assert family_dim("segre-3x4") == 12
        assert family_dim("segre-2x2x2") == 8
        assert family_dim("veronese2-3") == 6
        assert family_dim("gr2-6") == 15
        assert family_dim("gr3-6") == 20
        assert family_dim("lambda20-6") == 14
        assert family_dim("lambda30-6") == 14
        assert family_dim("quadric-5") == 5
        assert family_dim("spinor10") == 16
        assert family_dim("sl3-adjoint") == 8

    @pytest.mark.parametrize("bad", [
        "segre", "segre-3", "segre-0x4", "gr2-1", "gr3-7", "lambda20-5",
        "lambda30-8", "quadric-0", "spinor12", "nonsense-3", "gr2--4",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_family(bad)

    def test_rejects_bad_prime(self):
        with pytest.raises(ValueError):
            enumerate_cone_points("gr2-4", 4)
        with pytest.raises(ValueError):
            enumerate_cone_points("gr2-4", 17)

    def test_ambient_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_cone_points("spinor10", 3)  # 3^16 > 2^24
        with pytest.raises(CapExceeded):
            enumerate_cone_points("gr2-8", 3)  # 3^28 > 2^24
        assert AMBIENT_CAP == 1 << 24


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.from_regex(r"(segre|veronese2|gr[23]|lambda[23]0|quadric|sl3)"
                  r"-[0-9x-]{0,7}", fullmatch=True)))
def test_parse_family_returns_or_raises_value_error(name):
    try:
        fam = parse_family(name)
    except ValueError:
        return
    assert fam["kind"] in {rec.kind for rec in _FAMILIES}
    assert family_dim(name) >= 1


class TestRegistry:
    """Every family kind, through its own record."""

    INSTANCES = {
        "segre": ("segre-2x3", 3), "segre3": ("segre-2x2x2", 3),
        "veronese2": ("veronese2-3", 3), "gr2": ("gr2-5", 2),
        "gr3": ("gr3-6", 2), "lambda20": ("lambda20-6", 2),
        "lambda30": ("lambda30-6", 2), "quadric": ("quadric-5", 3),
        "spinor10": ("spinor10", 2), "sl3adj": ("sl3-adjoint", 3),
    }

    def test_instances_cover_every_kind(self):
        assert set(self.INSTANCES) == {rec.kind for rec in _FAMILIES}

    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_dim_and_membership(self, kind):
        family, p = self.INSTANCES[kind]
        rec, fam = _family(family)
        assert fam == parse_family(family)
        assert fam["kind"] == kind
        pts = enumerate_cone_points(family, p)
        assert family_dim(family) == pts.dim
        member = rec.member(fam, p)
        assert member(decode_array(pts.reps, p, pts.dim)).all()

    @pytest.mark.parametrize("kind", sorted(INSTANCES))
    def test_array_member_matches_scalar_reference(self, kind):
        # the cone points and random vectors, most of them off the cone
        family, p = self.INSTANCES[kind]
        rec, fam = _family(family)
        pts = enumerate_cone_points(family, p)
        d = pts.dim
        rng = random.Random(kind)
        codes = list(pts.reps) + [rng.randrange(1, p ** d)
                                  for _ in range(300)]
        ref = MEMBER[kind](fam, p)
        want = [ref(tuple(decode_vec(code, p, d))) for code in codes]
        assert not all(want)
        got = rec.member(fam, p)(decode_array(codes, p, d))
        assert got.dtype == bool and got.tolist() == want

    @pytest.mark.parametrize("kind,p", [
        (kind, p) for kind, (family, _) in sorted(INSTANCES.items())
        for p in (2, 3, 5) if p ** family_dim(family) <= AMBIENT_CAP])
    def test_array_points_match_scalar_reference(self, kind, p):
        rec, fam = _family(self.INSTANCES[kind][0])
        want = list(POINTS[kind](fam, p))
        got = rec.points(fam, p)
        assert got.dtype == np.int64 and got.shape == (len(want), rec.dim(fam))
        assert got.tolist() == want

    def test_spinor_points_need_f2(self):
        rec, fam = _family("spinor10")
        for points in (rec.points, POINTS["spinor10"]):
            with pytest.raises(ValueError):
                list(points(fam, 3))

    @pytest.mark.parametrize("family,p", [
        ("segre-2x3", 3), ("segre-3x2", 5), ("gr2-5", 2), ("gr2-4", 3),
        ("gr2-4", 5)])
    def test_array_closed_form_matches_scalar_reference(self, family, p):
        # every nonzero vector; the odd primes tell a sign slip apart
        assert set(CLOSED_FORM) == {rec.kind for rec in _FAMILIES
                                    if rec.closed_form is not None}
        rec, fam = _family(family)
        ref = CLOSED_FORM[rec.kind](fam, p)
        d = family_dim(family)
        codes = range(1, p ** d)
        got = _closed_form(family, p)[1](decode_array(codes, p, d))
        assert got.tolist() == [ref(decode_vec(code, p, d)) for code in codes]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("family", [
        "segre-2x2", "segre-2x3", "segre-3x3", "segre-2x2x2", "veronese2-2",
        "veronese2-3", "veronese2-4", "gr2-4", "gr2-5", "gr3-6", "lambda20-4",
        "lambda20-6", "lambda30-6", "quadric-5", "quadric-6", "spinor10",
        "sl3-adjoint"])
    def test_generators_match_scalar_reference(self, family, p):
        assert set(GENERATORS) == set(self.INSTANCES)
        rec, fam = _family(family)
        assert rec.generators(fam, p) == GENERATORS[rec.kind](fam, p)


class TestEncoding:
    def test_roundtrip(self):
        rng = random.Random(5)
        for p in (2, 3, 5):
            for _ in range(50):
                vec = [rng.randrange(p) for _ in range(9)]
                assert decode_vec(encode_vec(vec, p), p, 9) == vec

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode_vec(1 << 20, 2, 20)

    @pytest.mark.parametrize("p,d", [(2, 20), (3, 9), (13, 6)])
    def test_array_codec_matches_scalar(self, p, d):
        rng = random.Random(p)
        codes = [0, 1, p ** d - 1] + [rng.randrange(p ** d)
                                      for _ in range(200)]
        digits = decode_array(codes, p, d)
        assert digits.shape == (len(codes), d)
        assert digits.tolist() == [decode_vec(code, p, d) for code in codes]
        assert encode_array(digits, p).tolist() == codes
        assert decode_array([], p, d).shape == (0, d)

    def test_split_quadric_value_char2(self):
        # the halved form is not identically zero mod 2
        assert split_quadric_value([1, 1, 0, 0], 2) == 1
        assert split_quadric_value([1, 0, 0, 1], 2) == 0
        assert split_quadric_value([0, 0, 0, 0, 1], 2) == 1  # odd leftover

    def test_codec_roundtrip(self):
        # solution space of one linear constraint mod 3
        codec = SubspaceCodec([[1, 2, 0, 1]], 3, 4)
        assert codec.dim == 3
        for sub in itertools.product(range(3), repeat=3):
            full = codec.to_full(list(sub))
            assert codec.to_sub(full) == list(sub)

    def test_codec_array_matches_scalar(self):
        codec = SubspaceCodec([[1, 1, 0, 0], [0, 0, 1, 2]], 3, 4)
        subs = np.array([[a, b] for a in range(3) for b in range(3)])
        full = codec.to_full_array(subs)
        assert codec.to_sub_array(full).tolist() == subs.tolist()
        assert [codec.to_sub(row) for row in full.tolist()] == [
            oracle_reference._to_sub(codec, row) for row in full.tolist()]
        full[4, 0] += 1
        with pytest.raises(ValueError):
            codec.to_sub_array(full)

    def test_codec_rejects_outsiders(self):
        codec = SubspaceCodec([[1, 0, 0, 0]], 2, 4)
        with pytest.raises(ValueError):
            codec.to_sub([1, 0, 0, 0])


class TestEnumeration:
    """Point counts against independently derived closed forms."""

    @pytest.mark.parametrize("family,p,expected", [
        # projective point counts: products of projective spaces
        ("segre-2x2", 2, 3 * 3),
        ("segre-2x2", 3, 4 * 4),
        ("segre-2x3", 2, 3 * 7),
        ("segre-2x2x2", 2, 3 * 3 * 3),
        ("veronese2-3", 2, 7),
        ("sl3-adjoint", 2, 21),  # flags in P^2: (7 lines)(3 points each)
    ])
    def test_product_counts(self, family, p, expected):
        assert len(enumerate_cone_points(family, p)) == expected

    @pytest.mark.parametrize("n,k,p", [(4, 2, 2), (4, 2, 3), (5, 2, 2),
                                       (6, 2, 2), (6, 3, 2)])
    def test_grassmannian_counts(self, n, k, p):
        fam = "gr%d-%d" % (k, n)
        assert len(enumerate_cone_points(fam, p)) == gaussian_binomial(n, k, p)

    def test_quadric_counts(self):
        # split quadric in P^{n-1} over F_2: brute-force the halved form
        for n in (4, 5, 6):
            brute = 0
            seen = set()
            for code in range(1, 2 ** n):
                vec = decode_vec(code, 2, n)
                if split_quadric_value(vec, 2) == 0:
                    brute += 1
            pts = enumerate_cone_points("quadric-%d" % n, 2)
            assert len(pts) == brute

    def test_isotropic_grassmannian_counts(self):
        # Lagrangian planes in F_2^6: prod (2^i + 1), i = 1..3
        assert len(enumerate_cone_points("lambda30-6", 2)) == 3 * 5 * 9
        # isotropic 2-planes in F_2^6: [6 2]_2 specialized by isotropy
        assert len(enumerate_cone_points("lambda20-6", 2)) == 315

    def test_spinor_count(self):
        # even pure spinors over F_2: prod (2^i + 1), i = 1..4
        assert len(enumerate_cone_points("spinor10", 2)) == 3 * 5 * 9 * 17

    def test_reps_are_canonical_and_nonzero(self):
        pts = enumerate_cone_points("segre-2x2", 3)
        for code in pts.reps:
            vec = decode_vec(code, 3, 4)
            assert any(vec)
            mult = [tuple(2 * v % 3 for v in vec)]
            assert tuple(vec) <= min(mult)

    @pytest.mark.parametrize("p", [2, 3])
    def test_isotropic_points_are_isotropic(self, p):
        from secant.oracle import _isotropic_codec  # noqa: internal helper
        codec = _isotropic_codec(6, 2, p)
        pairs = list(itertools.combinations(range(6), 2))
        pidx = {pq: t for t, pq in enumerate(pairs)}
        form = mirror_symplectic_form(6)
        pts = enumerate_cone_points("lambda20-6", p)
        assert "codec" in pts.meta
        for code in pts.reps:
            sub = decode_vec(code, p, 14)
            full = codec.to_full(sub)
            # zero contraction with the mirror symplectic form
            contraction = sum(form[i][j] * full[pidx[(i, j)]]
                              for (i, j) in pairs) % p
            assert contraction == 0
            # decomposable: the reconstructed skew matrix has rank 2
            mat = [[0] * 6 for _ in range(6)]
            for (i, j), t in pidx.items():
                mat[i][j] = full[t] % p
                mat[j][i] = (-full[t]) % p
            assert modp_rank(mat, p) == 2


class TestBFS:
    def test_gr2_4_layers(self):
        table = rank_table("gr2-4", 2, cache=False)
        counts = table.layer_counts()
        assert counts[0] == 1
        assert counts[1] == 35
        assert table.max_rank == 2
        assert sum(counts.values()) == 1 << 6

    def test_rank1_layer_is_cone(self):
        table = rank_table("segre-2x3", 2, cache=False)
        ones = set(int(c) for c in np.flatnonzero(table.ranks == 1))
        cone = set(int(c) for c in table.points.cone_codes())
        assert ones == cone

    def test_zero_code_is_rank_zero(self):
        table = rank_table("quadric-4", 3, cache=False)
        assert table.rank_of_code(0) == 0
        assert table.rank_of_vec([0, 0, 0, 0]) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_segre_2x2_matches_matrix_rank(self, p):
        table = rank_table("segre-2x2", p, cache=False)
        for code in range(1, p ** 4):
            vec = decode_vec(code, p, 4)
            mat = [[vec[0], vec[1]], [vec[2], vec[3]]]
            assert table.rank_of_code(code) == modp_rank(mat, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gr2_4_matches_skew_rank(self, p):
        table = rank_table("gr2-4", p, cache=False)
        pairs = list(itertools.combinations(range(4), 2))
        for code in range(1, p ** 6):
            vec = decode_vec(code, p, 6)
            mat = [[0] * 4 for _ in range(4)]
            for (i, j), v in zip(pairs, vec):
                mat[i][j] = v
                mat[j][i] = (-v) % p
            assert table.rank_of_code(code) == modp_rank(mat, p) // 2

    def test_gr2_6_matches_skew_rank_f2(self):
        table = rank_table("gr2-6", 2, cache=False)
        pairs = list(itertools.combinations(range(6), 2))
        for code in range(1, 1 << 15):
            vec = decode_vec(code, 2, 15)
            mat = [[0] * 6 for _ in range(6)]
            for (i, j), v in zip(pairs, vec):
                mat[i][j] = v
                mat[j][i] = v
            assert table.rank_of_code(code) == modp_rank(mat, 2) // 2

    @staticmethod
    def racing_table(pts):
        # more workers than cores, switching often, so that lost or
        # misplaced writes to the shared rank array would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return bfs_rank_table(pts, threads=4)
        finally:
            sys.setswitchinterval(interval)

    def test_threads_agree(self):
        # the 635376 codes left unseen for layer 3 spread over all 16
        # windows of 2^16 codes, so the pulled layer splits into 16 blocks
        pts = enumerate_cone_points("gr3-6", 2)
        seq = bfs_rank_table(pts, threads=1)
        par = self.racing_table(pts)
        assert seq.layer_counts()[3] == 635376
        assert np.array_equal(seq.ranks, par.ranks)

    def test_threads_agree_odd_prime(self):
        # layer 3 pulls into the representatives of six windows; the
        # doubles of the codes it places there land in windows 5 to 8, so
        # the writes of one block cross the window another block scans
        pts = enumerate_cone_points("segre-3x4", 3)
        seq = bfs_rank_table(pts, threads=1)
        par = self.racing_table(pts)
        assert seq.layer_counts()[3] == 449280
        assert np.array_equal(seq.ranks, par.ranks)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads, tmp_path, monkeypatch):
        # refused even where a cached table would need no BFS at all
        monkeypatch.setenv("SECANT_CACHE_DIR", str(tmp_path))
        rank_table("segre-2x2", 2)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            rank_table("segre-2x2", 2, threads=threads)
        pts = enumerate_cone_points("segre-2x2", 2)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            bfs_rank_table(pts, threads=threads)

    @pytest.mark.parametrize("family,p", [
        ("segre-2x3", 2), ("gr2-5", 2), ("segre-2x2x2", 2),
        ("segre-2x2", 3), ("quadric-5", 3), ("segre-2x2x2", 3),
        ("segre-2x2", 5), ("veronese2-2", 5),
    ])
    def test_matches_reference_bfs(self, family, p):
        pts = enumerate_cone_points(family, p)
        table = bfs_rank_table(pts)
        want = reference_ranks(pts.reps, p, pts.dim)
        assert len(table.ranks) == len(want)
        assert [int(v) for v in table.ranks] == want

    @pytest.mark.parametrize("p,d", [(2, 5), (3, 3), (5, 2)])
    def test_coordinate_points_rank_is_support_size(self, p, d):
        # every pull here runs all of its cone points as one group of
        # sums, so it places its codes only after the last cone point
        pts = PointSet(family="coordinates", prime=p, dim=d,
                       reps=tuple(p ** i for i in range(d)))
        table = bfs_rank_table(pts)
        for code in range(p ** d):
            assert table.rank_of_code(code) == sum(
                1 for v in decode_vec(code, p, d) if v)

    @pytest.mark.parametrize("block", [_BLOCK, 1 << 8])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("family,p", STEPWISE_FAMILIES)
    def test_matches_step_at_a_time_bfs(self, family, p, threads, block,
                                        monkeypatch):
        # a block of 2^8 codes makes the groups of cone points, the
        # compaction points and the pull windows cross their boundaries
        # many times
        pts, want = stepwise_table(family, p)
        monkeypatch.setattr(orc, "_BLOCK", block)
        assert np.array_equal(bfs_rank_table(pts, threads=threads).ranks,
                              want)

    @pytest.mark.parametrize("family,p", [
        (family, p) for family, p in STEPWISE_FAMILIES if p > 2])
    def test_ranks_are_scalar_invariant(self, family, p):
        # over F_2 there is no scalar besides 1
        pts, _ = stepwise_table(family, p)
        ranks = bfs_rank_table(pts).ranks
        digits = decode_array(np.arange(len(ranks)), p, pts.dim)
        for scalar in range(2, p):
            multiples = encode_array(digits * scalar % p, p)
            assert np.array_equal(ranks[multiples], ranks), scalar

    def test_push_then_pull(self):
        # layer 2 pushes from the 128 cone codes (128 * 14 <= 6432 unseen)
        # and layer 3 pulls (4032 * 14 > 2400 unseen);
        # test_matches_reference_bfs checks this family code for code
        counts = rank_table("segre-2x2x2", 3, cache=False).layer_counts()
        assert counts == {0: 1, 1: 128, 2: 4032, 3: 2400}
        assert counts[1] * 14 <= 3 ** 8 - 1 - counts[1]
        assert counts[2] * 14 > counts[3]

    @pytest.mark.parametrize("m,n,p", [(3, 4, 3), (3, 3, 5)])
    def test_matrix_layers_closed_form(self, m, n, p):
        table = rank_table("segre-%dx%d" % (m, n), p, cache=False)
        counts = table.layer_counts()
        assert counts == {r: matrix_rank_count(m, n, r, p)
                          for r in range(min(m, n) + 1)}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_digit_add_rows_match_reference(self, p):
        rng = random.Random(p)
        for k in range(8):
            top = p ** k - 1
            halves = np.array([0, top, top, 0] + [rng.randrange(top + 1)
                                                  for _ in range(3)])
            for scale in (1, p):
                got = _digit_add_rows(halves, p, k, scale)
                assert got.dtype == np.int32
                assert np.array_equal(got, oracle_reference.digit_add_rows(
                    halves, p, k, scale)), (k, scale)

    def test_layer_counts_match_reference(self):
        rng = np.random.default_rng(4)
        for ranks in (np.array([0, 1, 1, 3, 3, 3], dtype=np.uint8),
                      rng.choice(np.array([0, 1, 2, 4], dtype=np.uint8),
                                 size=3 * _BLOCK + 7),
                      rank_table("gr2-4", 3, cache=False).ranks):
            table = RankTable(family="x", prime=2, dim=0, ranks=ranks,
                              points=None)
            counts = table.layer_counts()
            assert counts == oracle_reference.layer_counts(ranks)
            assert list(counts) == sorted(counts)


class TestCaching:
    def test_save_load_roundtrip(self, tmp_path):
        table = rank_table("segre-2x2", 2, cache=False)
        stem = str(tmp_path / "t")
        table.save(stem)
        back = table.load(stem)
        assert back.family == table.family
        assert back.prime == table.prime
        assert np.array_equal(back.ranks, table.ranks)

    def test_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECANT_CACHE_DIR", str(tmp_path))
        t1 = rank_table("segre-2x2", 3)
        files = sorted(os.listdir(tmp_path))
        assert any(f.endswith(".json") for f in files)
        assert any(f.endswith(".bin") for f in files)
        t2 = rank_table("segre-2x2", 3)
        assert np.array_equal(t1.ranks, t2.ranks)

    def test_corrupt_cache_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SECANT_CACHE_DIR", str(tmp_path))
        t1 = rank_table("segre-2x2", 2)
        name = [f for f in os.listdir(tmp_path) if f.endswith(".json")][0]
        stem = str(tmp_path / name[:-len(".json")])
        # one flipped rank byte keeps the length the header expects
        with open(stem + ".bin", "r+b") as fh:
            fh.seek(5)
            byte = fh.read(1)[0]
            fh.seek(5)
            fh.write(bytes([byte ^ 1]))
        with pytest.raises(ValueError):
            RankTable.load(stem)
        t2 = rank_table("segre-2x2", 2)
        assert np.array_equal(t1.ranks, t2.ranks)
        assert np.array_equal(RankTable.load(stem).ranks, t1.ranks)
        # a header that disagrees with the bytes it vouches for: a rep
        # outside range(1, p**d), a point count that is not len(reps), or a
        # rank byte of 200 under a rewritten sha256, so that only the
        # layer counts disagree
        with open(stem + ".json") as fh:
            good = json.load(fh)
        data = t1.ranks.tobytes()
        forged = data[:5] + bytes([200]) + data[6:]
        reps = good["reps"]
        for bad, raw, why in (
                (dict(good, reps=reps + [10 ** 30], points=len(reps) + 1),
                 data, "rep outside"),
                (dict(good, reps=[0] + reps[1:]), data, "rep outside"),
                (dict(good, points=len(reps) + 1), data, "point count"),
                (dict(good, sha256=orc._sha256(forged)), forged,
                 "layer counts")):
            with open(stem + ".json", "w") as fh:
                json.dump(bad, fh)
            with open(stem + ".bin", "wb") as fh:
                fh.write(raw)
            with pytest.raises(ValueError, match=why):
                RankTable.load(stem)
            t5 = rank_table("segre-2x2", 2)
            assert np.array_equal(t1.ranks, t5.ranks)
            assert np.array_equal(RankTable.load(stem).ranks, t1.ranks)
        with open(stem + ".json", "w") as fh:
            fh.write("{not json")
        t3 = rank_table("segre-2x2", 2)
        assert np.array_equal(t1.ranks, t3.ranks)
        # a header that is not an object, or has a field of the wrong type
        for header in ("[]", '{"version": 2, "prime": "2", "dim": 6}'):
            with open(stem + ".json", "w") as fh:
                fh.write(header)
            with pytest.raises(ValueError):
                RankTable.load(stem)
            t4 = rank_table("segre-2x2", 2)
            assert np.array_equal(t1.ranks, t4.ranks)

    def test_save_leaves_no_temporaries(self, tmp_path):
        table = rank_table("segre-2x2", 3, cache=False)
        table.save(str(tmp_path / "t"))
        table.save(str(tmp_path / "t"))
        assert sorted(os.listdir(tmp_path)) == ["t.bin", "t.json"]
        with open(tmp_path / "t.json") as fh:
            assert len(json.load(fh)["sha256"]) == 64


class TestLeviProjection:
    @pytest.mark.parametrize("big,sub,p", [
        ("gr2-6", "gr2-4", 2),
        ("segre-3x3", "segre-2x2", 2),
        ("segre-3x3", "segre-2x2", 3),
    ])
    def test_rank_preserved(self, big, sub, p):
        rep = levi_projection_test(big, sub, p)
        assert rep.rank_equal
        assert rep.projection_contained
        assert rep.vectors_checked == p ** family_dim(sub) - 1
        assert rep.points_projected > 0

    def test_rejects_unrelated(self):
        with pytest.raises(ValueError):
            levi_projection_test("gr2-6", "segre-2x2", 2)


class TestTangentProbes:
    def test_segre_2x2_asserted(self):
        rep = tangent_probe("segre-2x2", 2)
        assert rep.asserted
        assert rep.max_rank <= 2
        assert rep.probes == sum(rep.histogram.values())

    def test_gr2_4_asserted_p3(self):
        rep = tangent_probe("gr2-4", 3)
        assert rep.asserted
        assert rep.max_rank <= 2

    def test_gr3_6_shadow_of_wildness(self):
        rep = tangent_probe("gr3-6", 2)
        assert not rep.asserted
        assert rep.label.startswith("report-only")
        assert rep.histogram.get(3, 0) > 0  # some tangent probe needs 3 points

    def test_lambda30_6_report_only(self):
        rep = tangent_probe("lambda30-6", 2)
        assert not rep.asserted
        assert rep.max_rank <= 3

    # recorded from commit 37b77ff, before the family registry, to pin the
    # generators; the veronese2 row is recorded after its generators were
    # changed to act on the symmetric matrix of the cells (S -> E S + S E^T)
    @pytest.mark.parametrize("family,p,probes,histogram", [
        ("segre-2x2x2", 3, 2304, {0: 42, 1: 1250, 2: 684, 3: 328}),
        ("veronese2-3", 3, 429, {0: 12, 1: 50, 2: 367}),
        ("lambda20-4", 3, 1360, {0: 16, 1: 579, 2: 765}),
        ("quadric-5", 3, 1360, {0: 5, 1: 623, 2: 732}),
        ("spinor10", 2, 158355, {0: 693, 1: 110890, 2: 46772}),
        ("sl3-adjoint", 3, 1716, {0: 37, 1: 466, 2: 1213}),
    ])
    def test_pinned_histogram(self, family, p, probes, histogram):
        rep = tangent_probe(family, p)
        assert not rep.asserted
        assert rep.probes == probes
        assert rep.histogram == histogram

    @pytest.mark.parametrize("p", [3, 5])
    def test_veronese2_probes_have_matrix_rank(self, p):
        # every probe x + t.x is a symmetric matrix of rank <= 2, a tangent
        # vector of the Veronese, and over an odd prime the rank of a
        # symmetric matrix is the number of cone points it needs; the family
        # stays report-only because over F_2 [[0,1],[1,0]] needs three
        family, n = "veronese2-3", 3
        table = rank_table(family, p)
        rec, fam = _family(family)
        gens = rec.generators(fam, p)
        gens = gens + _composite_batch(gens, p, family)
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        hist: dict = {}
        for code in table.points.reps:
            x = decode_vec(int(code), p, table.dim)
            for g in gens:
                y = [(a + sum(c * b for c, b in zip(row, x))) % p
                     for a, row in zip(x, g)]
                sym = [[0] * n for _ in range(n)]
                for (i, j), v in zip(cells, y):
                    sym[i][j] = sym[j][i] = v
                r = modp_rank(sym, p)
                assert table.rank_of_vec(y) == r <= 2
                hist[r] = hist.get(r, 0) + 1
        rep = tangent_probe(family, p)
        assert rep.histogram == hist and not rep.asserted


class TestThreeFactorLowerBound:
    @pytest.mark.parametrize("p", [2, 3])
    def test_rank3(self, p):
        assert tensor222_check(p)

    def test_rejects_large_prime(self):
        with pytest.raises(ValueError):
            tensor222_check(7)


class TestWedge3Lift:
    def test_tr2_matches_normalized_quartic(self):
        rng = random.Random(77)
        for trial in range(40):
            co = [rng.randint(-3, 3) for _ in range(20)]
            raw = int(wedge3_tr2_values(np.array([co]))[0])
            assert Q(raw, 6) == wedge3_quartic(co)
            # Fraction coordinates, whose reduced denominators differ; the
            # quartic is homogeneous of degree 4
            den = 2 + trial % 5
            scaled = [Q(c, den) for c in co]
            assert Q(raw, 6 * den ** 4) == wedge3_quartic(scaled)

    def test_tr2_poly_is_quartic(self):
        poly = wedge3_tr2_poly()
        assert all(len(mono) == 4 for mono in poly)
        assert all(c for c in poly.values())

    def test_report_matches_frozen_fixture(self):
        rep = wedge3_f2_report()
        with open(FIXTURE) as fh:
            frozen = json.load(fh)
        got = {k: v for k, v in rep.items() if k != "layer_counts"}
        want = {k: v for k, v in frozen.items() if k != "layer_counts"}
        assert got == want
        assert {int(k): v for k, v in frozen["layer_counts"].items()} == \
            rep["layer_counts"]
        assert rep["decomposable_equality"]
        assert rep["criterion_le_bfs"]
        assert rep["max_rank"] == 3
        assert rep["witness_bfs_rank"] == 3

    def test_divisor_ranks_match_int_rank(self):
        # decomposables (rank 3), sums of two of them (rank 5 when they
        # share a line, 6 otherwise), the zero vector and random vectors
        rng = random.Random(21)

        def plane():
            return [[rng.randrange(2) for _ in range(6)] for _ in range(3)]
        vecs = [[0] * 20] + [[rng.randint(-4, 4) for _ in range(20)]
                             for _ in range(40)]
        for _ in range(200):
            a, b = plane(), plane()
            b[0] = a[0] if rng.randrange(2) else b[0]
            wa, wb = _wedge_rows(a, 6), _wedge_rows(b, 6)
            vecs += [wa, [x + y for x, y in zip(wa, wb)]]
        want = [int_rank(_divisor_matrix(v)) for v in vecs]
        assert {0, 3, 5, 6} <= set(want)
        assert _divisor_ranks(vecs).tolist() == want
        # the modulus is a prime above the Hadamard bound (4 sqrt 6)^6
        q = _HADAMARD_PRIME
        assert q * q > 4 ** 12 * 6 ** 6
        assert all(q % f for f in range(2, math.isqrt(q) + 1))
        with pytest.raises(ValueError):
            _divisor_ranks([[5] + [0] * 19])

    def test_report_violation_branch(self, monkeypatch):
        # a divisor rank of 6 on a quartic-zero rank-2 lift would refute the
        # criterion; the report names the first such code
        monkeypatch.setattr(orc, "_divisor_ranks",
                            lambda vecs: np.arange(len(vecs)) % 7)
        rep = wedge3_f2_report(cache=False)
        assert rep["criterion_le_bfs"] is False
        table = rank_table("gr3-6", 2, cache=False)
        assert table.rank_of_code(rep["first_violation"]) == 2
        assert "rank3_count" not in rep

    def test_01_coordinate_lift_is_the_wrong_comparison(self):
        # the 0/1 coordinate lift of an F_2-decomposable tensor need not be
        # rationally decomposable: the 2-form part below has Pfaffian 2
        tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
        co = [0] * 20
        for t in ((0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4)):
            co[tidx[t]] = 1
        from secant.ranks import wedge3_c6_rank
        assert wedge3_c6_rank(co) == 2
        table = rank_table("gr3-6", 2)
        assert table.rank_of_vec(co) == 1


class TestSpinorOracle:
    def test_f2_pure_spinors_match_quadric_zero_locus(self):
        # two independent computations: constructive enumeration vs
        # brute-force zero locus of the ten purity quadrics mod 2
        quads = purity_quadric_table()
        zero_locus = set()
        for code in range(1, 1 << 16):
            s = [(code >> i) & 1 for i in range(16)]
            if all(sum(c * s[i] * s[j] for (i, j), c in q.items()) % 2 == 0
                   for q in quads):
                zero_locus.add(code)
        assert zero_locus == set(f2_pure_spinor_set())

    def test_f2_pure_spinors_match_scalar_reference(self):
        assert f2_pure_spinor_set() == oracle_reference.f2_pure_spinor_set()

    def test_spinor_table_max_rank_two(self):
        table = rank_table("spinor10", 2, cache=False)
        assert table.max_rank == 2
        assert table.layer_counts()[1] == 2295
