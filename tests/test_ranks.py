"""Tests for the exact rank functions and the symplectic witness."""

import itertools
import json
import random
from fractions import Fraction as Q

import pytest

from secant.chevalley import split_symmetric_form
from secant.linalg import rank as mat_rank
from secant.ranks import (
    EVEN_SUBSETS,
    WEDGE3_INDEX,
    WEDGE3_TRIPLES,
    CoformDecomposition,
    Tensor,
    coform_rank_decompose,
    flattening_images,
    gr2_rank,
    pure_even_spinor,
    purity_quadric_table,
    purity_quadrics,
    quadric_rank,
    quadric_split,
    rank_of_tensor,
    segre_rank,
    sp6_wedge3_witness,
    spinor10_rank,
    spinor_annihilator_dim,
    split_symplectic_form,
    tensor_from_json,
    tensor_to_json,
    veronese2_rank,
    wedge3_c6_rank,
    wedge3_divisor_space,
    wedge3_from_triples,
    wedge3_quartic,
    wedge3_transform,
)


def outer_sum(us, vs):
    m, n = len(us[0]), len(vs[0])
    return [[sum(u[i] * v[j] for u, v in zip(us, vs)) for j in range(n)]
            for i in range(m)]


class TestSegre:
    def test_three_term_outer_sum_4x5(self):
        us = [[1, 0, 0, 2], [0, 1, 1, 0], [3, 0, 1, 1]]
        vs = [[1, 1, 0, 0, 1], [0, 2, 1, 0, 0], [0, 0, 0, 1, 2]]
        assert segre_rank(outer_sum(us, vs)) == 3

    def test_random_outer_sums(self):
        rng = random.Random(11)
        for r in (1, 2, 3, 4):
            us = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(r)]
            vs = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(r)]
            got = segre_rank(outer_sum(us, vs))
            assert got == min(r, mat_rank(us), mat_rank(vs))

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            segre_rank([])
        with pytest.raises(ValueError):
            segre_rank([[1, 2], [3]])


class TestVeronese:
    def test_diag_examples(self):
        assert veronese2_rank([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == 2
        v = [2, -1, 3]
        assert veronese2_rank([[a * b for b in v] for a in v]) == 1

    def test_random_sums_of_squares(self):
        rng = random.Random(5)
        for r in (1, 2, 3):
            vs = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(r)]
            mat = [[sum(v[i] * v[j] for v in vs) for j in range(4)] for i in range(4)]
            assert veronese2_rank(mat) == mat_rank(vs)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            veronese2_rank([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            veronese2_rank([[1, 2, 3], [2, 1, 4]])


class TestGr2:
    def test_plane_counts(self):
        one = [[0, 1], [-1, 0]]
        assert gr2_rank(one) == 1
        two = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        assert gr2_rank(two) == 2

    def test_three_planes_in_8(self):
        w = [[Q(0)] * 8 for _ in range(8)]
        rng = random.Random(3)
        planes = 0
        while planes < 3:
            x = [rng.randint(-3, 3) for _ in range(8)]
            y = [rng.randint(-3, 3) for _ in range(8)]
            pw = [[x[i] * y[j] - x[j] * y[i] for j in range(8)] for i in range(8)]
            trial = [[w[i][j] + pw[i][j] for j in range(8)] for i in range(8)]
            if mat_rank(trial) == 2 * (planes + 1):
                w = trial
                planes += 1
        assert gr2_rank(w) == 3

    def test_rejects_nonskew(self):
        with pytest.raises(ValueError):
            gr2_rank([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            gr2_rank([[0, 1], [1, 0]])


class TestQuadric:
    def test_isotropic_vs_anisotropic(self):
        for n in (2, 3, 4, 5, 6, 7):
            assert quadric_rank([1] + [0] * (n - 1)) == 1
            v = [1, 1] + [0] * (n - 2)
            assert quadric_rank(v) == 2

    def test_split_certificates(self):
        rng = random.Random(19)
        for n in (2, 3, 4, 5, 6):
            g = split_symmetric_form(n)
            for _ in range(10):
                v = [Q(rng.randint(-5, 5)) for _ in range(n)]
                if not any(v):
                    continue
                pieces = quadric_split(v)
                assert len(pieces) == quadric_rank(v)
                total = [Q(0)] * n
                for p in pieces:
                    q = sum(p[i] * g[i][j] * p[j] for i in range(n) for j in range(n))
                    assert q == 0
                    total = [a + b for a, b in zip(total, p)]
                assert total == [Q(x) for x in v]

    def test_odd_unit_direction_splits_in_closed_form(self):
        # the odd unit direction pairs to zero with every coordinate vector;
        # a = e_0 - 2e_1 + 2e_4 is isotropic and pairs to 2 with it
        v = [0, 0, 0, 0, 1]
        assert quadric_split(v) == [[Q(1, 4), Q(-1, 2), 0, 0, Q(1, 2)],
                                    [Q(-1, 4), Q(1, 2), 0, 0, Q(1, 2)]]

    def test_odd_last_coordinate_splits_at_every_size(self):
        # c*e_last for odd n up to 2001: no coordinate vector pairs with
        # it, so every size takes the closed-form direction
        def value(p):  # the split form: pairs (2i, 2i+1), the last alone
            n = len(p)
            return (2 * sum(p[k] * p[k + 1] for k in range(0, n - 1, 2))
                    + p[-1] * p[-1])

        for n in sorted({*range(3, 2002, 100), 601, 801, 2001}):
            v = [0] * (n - 1) + [Q(n, 7)]
            pieces = quadric_split(v)
            assert len(pieces) == quadric_rank(v) == 2
            assert all(value(p) == 0 for p in pieces)
            assert [a + b for a, b in zip(*pieces)] == v

    def test_validation(self):
        with pytest.raises(ValueError):
            quadric_rank([0, 0, 0, 0])
        # on one coordinate the form x^2 has no nonzero isotropic vector
        for bad in ([3], [Q(1, 2)], []):
            with pytest.raises(ValueError, match="at least 2 coordinates"):
                quadric_rank(bad)
            with pytest.raises(ValueError, match="at least 2 coordinates"):
                quadric_split(bad)

    def test_large_vector_takes_no_elimination(self, monkeypatch):
        # the form is fixed, so nothing is ranked: a 2000-coordinate vector
        # is split without one call of the dense elimination engine
        import secant.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("quadric path ran an elimination")

        monkeypatch.setattr(secant.linalg, "_bareiss", refuse)
        rng = random.Random(2000)
        coords = [Q(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                  for _ in range(2000)]
        r, cert = rank_of_tensor(Tensor("quadric", [2000], coords))
        pieces = [[Q(x) for x in piece] for piece in cert["isotropic_pieces"]]
        assert r == len(pieces) == 2

        def value(p):  # the split form: pairs (2i, 2i+1) of 2000 coordinates
            return 2 * sum(p[k] * p[k + 1] for k in range(0, 2000, 2))

        assert value(coords) != 0
        assert all(value(p) == 0 for p in pieces)
        assert [a + b for a, b in zip(*pieces)] == coords


class TestSpinor:
    def test_basis_order(self):
        assert EVEN_SUBSETS[0] == ()
        assert EVEN_SUBSETS[1] == (0, 1)
        assert EVEN_SUBSETS[11] == (0, 1, 2, 3)
        assert len(EVEN_SUBSETS) == 16

    def test_quadric_table_unit_coefficients(self):
        table = purity_quadric_table()
        assert len(table) == 10
        seen_monomials = set()
        for quad in table:
            assert quad, "purity quadric is identically zero"
            for (p, q), c in quad.items():
                assert c in (1, -1)
                assert p < q  # no square terms
                seen_monomials.add((p, q))
        assert seen_monomials

    def test_vacuum_is_pure(self):
        vac = [1] + [0] * 15
        assert spinor10_rank(vac) == 1
        assert all(v == 0 for v in purity_quadrics(vac))

    def test_one_plus_four_vector_is_not_pure(self):
        s = [0] * 16
        s[0] = 1
        s[EVEN_SUBSETS.index((0, 1, 2, 3))] = 1
        assert spinor10_rank(s) == 2
        assert any(v != 0 for v in purity_quadrics(s))

    def test_exponential_parametrization_is_pure(self):
        rng = random.Random(23)
        for _ in range(30):
            om = [[Q(0)] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i + 1, 5):
                    om[i][j] = Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                    om[j][i] = -om[i][j]
            s = pure_even_spinor(om)
            assert spinor10_rank(s) == 1

    def test_annihilator_cross_check(self):
        rng = random.Random(31)
        samples = [[1] + [0] * 15]
        for _ in range(20):
            om = [[Q(0)] * 5 for _ in range(5)]
            for i in range(5):
                for j in range(i + 1, 5):
                    om[i][j] = Q(rng.randint(-3, 3))
                    om[j][i] = -om[i][j]
            samples.append(pure_even_spinor(om))
        for _ in range(20):
            samples.append([Q(rng.randint(-3, 3)) for _ in range(16)])
        for s in samples:
            if not any(s):
                continue
            pure = spinor10_rank(s) == 1
            assert pure == (spinor_annihilator_dim(s) == 5)

    def test_purity_scale_invariant(self):
        om = [[Q(0)] * 5 for _ in range(5)]
        om[0][1] = Q(2)
        om[1][0] = Q(-2)
        s = pure_even_spinor(om)
        assert spinor10_rank([Q(7, 3) * v for v in s]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            spinor10_rank([0] * 16)
        with pytest.raises(ValueError):
            spinor10_rank([1] * 15)
        with pytest.raises(ValueError):
            pure_even_spinor([[0] * 4 for _ in range(4)])
        with pytest.raises(ValueError):
            pure_even_spinor([[1] * 5 for _ in range(5)])


def random_tracefree_coform(rng, n, form):
    """Random skew matrix with zero symplectic contraction."""
    w = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = Q(rng.randint(-3, 3))
            w[j][i] = -w[i][j]
    contraction = sum(form[i][j] * w[i][j]
                      for i in range(n) for j in range(i + 1, n))
    w[0][1] -= contraction / form[0][1]
    w[1][0] = -w[0][1]
    return w


class TestCoform:
    @pytest.mark.parametrize("n2", [4, 6, 8, 12])
    def test_random_tracefree_decomposition(self, n2):
        rng = random.Random(n2)
        form = split_symplectic_form(n2)
        for _ in range(15):
            w = random_tracefree_coform(rng, n2, form)
            dec = coform_rank_decompose(w)
            assert isinstance(dec, CoformDecomposition)
            assert dec.rank == mat_rank(w) // 2
            # decompose() self-verifies reassembly and isotropy; re-verify
            total = [[Q(0)] * n2 for _ in range(n2)]
            for x, y in dec.pairs:
                for i in range(n2):
                    for j in range(n2):
                        total[i][j] += x[i] * y[j] - x[j] * y[i]
                pairing = sum(x[i] * form[i][j] * y[j]
                              for i in range(n2) for j in range(n2))
                assert pairing == 0
            assert total == w

    def test_zero_form(self):
        assert coform_rank_decompose([[Q(0)] * 4 for _ in range(4)]).rank == 0

    def test_gr2_consistency(self):
        rng = random.Random(99)
        form = split_symplectic_form(6)
        for _ in range(10):
            w = random_tracefree_coform(rng, 6, form)
            assert coform_rank_decompose(w).rank == gr2_rank(w)

    def test_rejects_nonzero_contraction(self):
        form = split_symplectic_form(4)
        w = [[Q(0)] * 4 for _ in range(4)]
        w[0][1] = Q(1)
        w[1][0] = Q(-1)
        assert sum(form[i][j] * w[i][j] for i in range(4) for j in range(i + 1, 4)) != 0
        with pytest.raises(ValueError):
            coform_rank_decompose(w)

    def test_rejects_nonskew(self):
        with pytest.raises(ValueError):
            coform_rank_decompose([[1, 0], [0, 1]])

    def test_self_check_rejects_wrong_pairs(self):
        # the integer self-check accepts the emitted pairs, and rejects a
        # doubled pair (still isotropic) or an added non-isotropic one
        from secant.linalg import _integer_matrix
        from secant.ranks import _verify_pairs
        rng = random.Random(7)
        form = split_symplectic_form(6)

        def bil(x, y):
            return sum(x[i] * form[i][j] * y[j]
                       for i in range(6) for j in range(6))

        w = [[v / 3 for v in row]
             for row in random_tracefree_coform(rng, 6, form)]
        a, den = _integer_matrix(w)
        pairs = coform_rank_decompose(w).pairs
        assert den > 1 and len(pairs) > 1
        _verify_pairs(pairs, a, den, bil)
        x, y = pairs[0]
        doubled = ([2 * v for v in x], y)
        with pytest.raises(AssertionError, match="reassemble"):
            _verify_pairs([doubled] + pairs[1:], a, den, bil)
        e0, f0 = [0] * 6, [0] * 6
        e0[0], f0[1] = 1, 1
        assert bil(e0, f0) != 0
        with pytest.raises(AssertionError, match="isotropic"):
            _verify_pairs(pairs + [(e0, f0)], a, den, bil)


class TestFlattening:
    def test_decomposable(self):
        u, v, w = [1, 2], [1, 0, 1], [0, 1, 1, 0]
        coords = [u[i] * v[j] * w[k]
                  for i in range(2) for j in range(3) for k in range(4)]
        ims = flattening_images(coords, (2, 3, 4))
        assert [len(b) for b in ims] == [1, 1, 1]

    def test_corner_tensor_has_full_planes(self):
        # sum of the three "one step off the corner" products in 2x2x2
        coords = [Q(0)] * 8
        for (i, j, k) in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            coords[(i * 2 + j) * 2 + k] = Q(1)
        ims = flattening_images(coords, (2, 2, 2))
        assert [len(b) for b in ims] == [2, 2, 2]

    def test_zero_tensor(self):
        ims = flattening_images([0] * 24, (2, 3, 4))
        assert [len(b) for b in ims] == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            flattening_images([0] * 7, (2, 2, 2))


def elementary6(rng):
    i, j = rng.sample(range(6), 2)
    c = Q(rng.randint(-3, 3))
    m = [[Q(1 if a == b else 0) for b in range(6)] for a in range(6)]
    m[i][j] = c
    return m


WEDGE3_REPS = [
    ("decomposable", wedge3_from_triples([(0, 1, 2, 1)]), 1),
    ("two-block", wedge3_from_triples([(0, 1, 2, 1), (3, 4, 5, 1)]), 2),
    ("divisible", wedge3_from_triples([(0, 1, 2, 1), (0, 4, 5, 1)]), 2),
    ("witness", sp6_wedge3_witness()[0], 3),
]


class TestWedge3:
    def test_orbit_representatives(self):
        for name, co, expected in WEDGE3_REPS:
            assert wedge3_c6_rank(co) == expected, name

    def test_quartic_normalization_pin(self):
        assert wedge3_quartic(wedge3_from_triples([(0, 1, 2, 1), (3, 4, 5, 1)])) == 1

    def test_quartic_vanishing_pattern(self):
        assert wedge3_quartic(WEDGE3_REPS[0][1]) == 0
        assert wedge3_quartic(WEDGE3_REPS[2][1]) == 0
        assert wedge3_quartic(WEDGE3_REPS[3][1]) == 0

    def test_divisor_space_dims(self):
        assert len(wedge3_divisor_space(WEDGE3_REPS[0][1])) == 3
        assert len(wedge3_divisor_space(WEDGE3_REPS[1][1])) == 0
        assert len(wedge3_divisor_space(WEDGE3_REPS[2][1])) == 1
        assert len(wedge3_divisor_space(WEDGE3_REPS[3][1])) == 0

    def test_rank_invariant_under_unimodular_changes(self):
        rng = random.Random(2024)
        for name, co, expected in WEDGE3_REPS:
            cur = co
            for _ in range(60):
                cur = wedge3_transform(cur, elementary6(rng))
                assert wedge3_c6_rank(cur) == expected, name

    def test_quartic_invariant_under_unimodular_changes(self):
        rng = random.Random(77)
        cur = WEDGE3_REPS[1][1]
        for _ in range(20):
            cur = wedge3_transform(cur, elementary6(rng))
        assert wedge3_quartic(cur) == 1

    def test_scaling_action_on_quartic(self):
        co = WEDGE3_REPS[1][1]
        scaled = [Q(3) * v for v in co]
        assert wedge3_quartic(scaled) == Q(3) ** 4

    def test_triple_builder_signs(self):
        co = wedge3_from_triples([(2, 1, 0, 1)])
        assert co[WEDGE3_INDEX[(0, 1, 2)]] == -1
        with pytest.raises(ValueError):
            wedge3_from_triples([(0, 0, 1, 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            wedge3_c6_rank([0] * 20)
        with pytest.raises(ValueError):
            wedge3_c6_rank([1] * 19)
        with pytest.raises(ValueError):
            wedge3_transform([0] * 20, [[1, 0], [0, 1]])


class TestSp6Witness:
    def test_report(self):
        co, rep = sp6_wedge3_witness()
        assert rep.contraction_is_zero
        assert rep.summand_planes_isotropic
        assert rep.rank == 3
        json.dumps(rep.as_dict())

    def test_exact_coordinates(self):
        co, _ = sp6_wedge3_witness()
        nonzero = {WEDGE3_TRIPLES[i]: v for i, v in enumerate(co) if v != 0}
        assert nonzero == {(0, 1, 3): 1, (0, 2, 4): -1, (1, 2, 5): 1}

    def test_contraction_independently(self):
        co, rep = sp6_wedge3_witness()
        form = rep.form
        out = [Q(0)] * 6
        for idx, (a, b, c) in enumerate(WEDGE3_TRIPLES):
            val = co[idx]
            if val == 0:
                continue
            out[c] += form[a][b] * val
            out[b] -= form[a][c] * val
            out[a] += form[b][c] * val
        assert all(v == 0 for v in out)

    def test_summands_isotropic_and_decomposable(self):
        for terms in ([(0, 1, 3, 1)], [(0, 4, 2, 1)], [(5, 1, 2, 1)]):
            assert wedge3_c6_rank(wedge3_from_triples(terms)) == 1


class TestTensorJSON:
    def test_roundtrip_all_shapes(self):
        fixtures = [
            Tensor("matrix", [2, 3], [Q(1), Q(0), Q(2), Q(0), Q(1), Q(-1)]),
            Tensor("symmetric", [2], [Q(1), Q(2), Q(2), Q(3)]),
            Tensor("skew", [2], [Q(0), Q(1), Q(-1), Q(0)]),
            Tensor("coform", [4], [Q(0)] * 16),
            Tensor("wedge3", [6], [Q(1, 2)] + [Q(0)] * 19),
            Tensor("spinor16", [16], [Q(1)] + [Q(0)] * 15),
            Tensor("quadric", [4], [Q(1), Q(0), Q(0), Q(0)]),
        ]
        for t in fixtures:
            blob = json.dumps(tensor_to_json(t))
            back = tensor_from_json(json.loads(blob))
            assert back == t

    def test_fraction_strings(self):
        t = tensor_from_json({"shape": "quadric", "dims": [2], "coords": ["3/4", "-2"]})
        assert t.coords == [Q(3, 4), Q(-2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            tensor_from_json([1, 2])
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "cube", "dims": [2], "coords": []})
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "matrix", "dims": [2], "coords": ["1"] * 4})
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "wedge3", "dims": [6], "coords": ["1"] * 19})
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "coform", "dims": [5], "coords": ["0"] * 25})
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "matrix", "dims": [2, 2],
                              "coords": ["1", "x", "0", "1"]})

    def test_float_coordinates_rejected(self):
        # a JSON float is not an exact rational; ints and strings are
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "matrix", "dims": [1, 1], "coords": [0.1]})
        with pytest.raises(ValueError):
            tensor_from_json({"shape": "quadric", "dims": [2], "coords": [1, 2.0]})
        t = tensor_from_json({"shape": "quadric", "dims": [2], "coords": [1, "2"]})
        assert t.coords == [Q(1), Q(2)]

    def test_rank_dispatch(self):
        mat = Tensor("matrix", [2, 2], [Q(1), Q(0), Q(0), Q(1)])
        assert rank_of_tensor(mat) == (2, None)
        sym = Tensor("symmetric", [2], [Q(1), Q(0), Q(0), Q(0)])
        assert rank_of_tensor(sym) == (1, None)
        skew = Tensor("skew", [2], [Q(0), Q(1), Q(-1), Q(0)])
        assert rank_of_tensor(skew) == (1, None)
        co, _ = sp6_wedge3_witness()
        assert rank_of_tensor(Tensor("wedge3", [6], co))[0] == 3
        vac = Tensor("spinor16", [16], [Q(1)] + [Q(0)] * 15)
        assert rank_of_tensor(vac) == (1, None)

    def test_rank_dispatch_certificates(self):
        w = [[Q(0)] * 4 for _ in range(4)]
        x, y = [Q(1), Q(0), Q(0), Q(0)], [Q(0), Q(0), Q(1), Q(0)]
        form = split_symplectic_form(4)
        pairing = sum(x[i] * form[i][j] * y[j] for i in range(4) for j in range(4))
        assert pairing == 0
        for i in range(4):
            for j in range(4):
                w[i][j] = x[i] * y[j] - x[j] * y[i]
        flat = [w[i][j] for i in range(4) for j in range(4)]
        r, cert = rank_of_tensor(Tensor("coform", [4], flat))
        assert r == 1 and len(cert["pairs"]) == 1

        r, cert = rank_of_tensor(Tensor("quadric", [4], [Q(1), Q(1), Q(0), Q(0)]))
        assert r == 2 and len(cert["isotropic_pieces"]) == 2


class TestExactInputs:
    """Python floats are inexact: every rank function refuses them, as the
    Jordan layer does, instead of reading their binary approximation."""

    def test_matrix(self):
        # read as binary fractions these have ranks 1 and 2
        with pytest.raises(TypeError):
            segre_rank([[0.1, 0.2], [0.3, 0.6]])
        with pytest.raises(TypeError):
            segre_rank([[0.1, 0.2], [0.3, 0.6000000000000001]])
        with pytest.raises(TypeError):
            veronese2_rank([[1, 0.5], [0.5, 1]])
        with pytest.raises(TypeError):
            gr2_rank([[0, 1.0], [-1.0, 0]])

    def test_coform(self):
        w = [[0] * 4 for _ in range(4)]
        w[0][2], w[2][0] = 0.5, -0.5
        with pytest.raises(TypeError):
            coform_rank_decompose(w)

    def test_wedge3(self):
        with pytest.raises(TypeError):
            wedge3_c6_rank([0.5] + [0] * 19)
        with pytest.raises(TypeError):
            wedge3_quartic([1, 0.0] + [0] * 18)
        eye = [[int(i == j) for j in range(6)] for i in range(6)]
        with pytest.raises(TypeError):
            wedge3_transform([0.25] + [0] * 19, eye)
        eye[0][0] = 1.0
        with pytest.raises(TypeError):
            wedge3_transform([1] + [0] * 19, eye)

    def test_spinor(self):
        with pytest.raises(TypeError):
            spinor10_rank([1.0] + [0] * 15)
        with pytest.raises(TypeError):
            purity_quadrics([1] + [0.0] * 15)
        with pytest.raises(TypeError):
            spinor_annihilator_dim([0.5] + [0] * 15)

    def test_quadric(self):
        with pytest.raises(TypeError):
            quadric_rank([1.0, 0, 0, 0])
        with pytest.raises(TypeError):
            quadric_split([1, 1, 0.5, 0])

    def test_int_first_outputs(self):
        # integral values come back as ints, other rationals as Fractions
        assert all(type(v) is int for row in split_symplectic_form(6)
                   for v in row)
        eye = [[int(i == j) for j in range(6)] for i in range(6)]
        out = wedge3_transform([Q(4, 2)] + [Q(1, 2)] + [0] * 18, eye)
        assert out[:2] == [2, Q(1, 2)] and type(out[0]) is int
        assert [type(v) for v in purity_quadrics([Q(2)] * 16)] == [int] * 10
        assert wedge3_from_triples([(0, 1, 2, Q(3, 3))])[0] == 1
        assert type(wedge3_from_triples([(0, 1, 2, Q(3, 3))])[0]) is int
