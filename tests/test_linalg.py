from __future__ import annotations

import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linalg_reference as ref
from secant.linalg import (
    _BLOCK,
    IntEchelon,
    QuadExt,
    _exact_scalar,
    _int_inverse,
    exact_rationals,
    int_rank,
    int_row_basis,
    mirror_symplectic_form,
    modp_nullspace,
    modp_rank,
    modp_rank_batch,
    rank,
    rational_sqrt,
    split_symmetric_form,
    split_symplectic_form,
)
from secant.oracle import _SMALL_PRIMES  # noqa: the oracle's primes

#: The oracle's primes, the largest prime of the int16 path of
#: ``modp_rank_batch`` (181^2 <= 2^15) and two primes of its int64 path.
_BATCH_PRIMES = _SMALL_PRIMES + (181, 191, 1_000_003)


def random_int_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def test_rank_basic():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_int_rank_matches_rational_rank():
    rng = random.Random(13)
    for _ in range(40):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert int_rank(m) == rank(m) == len(ref.row_reduce(m)[1])
        # rank clears denominators before its integer elimination
        frac = [[Q(v, rng.randint(1, 9)) for v in row] for row in m]
        assert rank(frac) == len(ref.row_reduce(frac)[1])


def _rational_matrices(rng, count):
    """Seeded rational matrices of every shape 0..7 x 0..8: sparse and
    dense, with zero rows and columns, rank-deficient rows, denominators
    up to 12 and numerators above 2^60."""
    for t in range(count):
        m, n = t % 8, (t // 8) % 9
        big = t % 5 == 4
        density = (0.3, 0.7, 1.0)[t % 3]

        def entry():
            if rng.random() > density:
                return 0
            num = rng.randint(-9, 9)
            if big:
                num = num * 2 ** 61 + rng.randint(-2 ** 40, 2 ** 40)
            den = rng.randint(1, 12)
            return num if den == 1 and t % 2 else Q(num, den)
        mat = [[entry() for _ in range(n)] for _ in range(m)]
        if m > 2 and t % 4 == 1:   # a combination of two other rows
            mat[1] = [3 * a - Q(b, 2) for a, b in zip(mat[0], mat[2])]
        if m > 1 and t % 7 == 3:   # a zero row
            mat[m - 1] = [0] * n
        if n > 1 and t % 6 == 2:   # a zero column
            for row in mat:
                row[0] = 0
        yield mat


def test_engine_matches_fraction_reference():
    rng = random.Random(2024)
    seen_shapes = set()
    for mat in _rational_matrices(rng, 2400):
        assert rank(mat) == len(ref.row_reduce(mat)[1])
        # the augmented matrix of a linear system
        rhs = [Q(rng.randint(-9, 9), rng.randint(1, 12)) for _ in mat]
        aug = [list(row) + [b] for row, b in zip(mat, rhs)]
        assert rank(aug) == len(ref.row_reduce(aug)[1])
        if mat and len(mat) == len(mat[0]):
            try:
                want_inv = ref.inverse(mat)
            except ValueError:
                with pytest.raises(ValueError):
                    _int_inverse(mat)
            else:
                rows, den = _int_inverse(mat)
                assert [[Q(x, den) for x in row] for row in rows] == want_inv
        seen_shapes.add((len(mat), len(mat[0]) if mat else 0))
    assert len(seen_shapes) == 8 * 9 - 8  # no 0 x n matrix has n columns


def test_int_inverse_is_the_cleared_inverse():
    # integer rows over one positive denominator
    rng = random.Random(2025)
    checked = 0
    for mat in _rational_matrices(rng, 2400):
        if not mat or len(mat) != len(mat[0]) or rank(mat) < len(mat):
            continue
        rows, den = _int_inverse(mat)
        assert type(den) is int and den > 0
        assert all(type(x) is int for row in rows for x in row)
        assert [[Q(x, den) for x in row] for row in rows] == ref.inverse(mat)
        checked += 1
    assert checked > 40
    with pytest.raises(ValueError, match="singular"):
        _int_inverse([[1, 2], [2, 4]])


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        _int_inverse([[1, 0, 0], [0, 1, 0]])


def test_rank_rejects_ragged_rows():
    with pytest.raises(ValueError):
        rank([[1, 2, 3], [4, 5]])


_HUGE = 10 ** 200


@st.composite
def _dense_int_matrices(draw):
    """Integer matrices of 1..7 rows and columns: small or 200-digit
    entries, sometimes all zero, with up to three extra rows that repeat or
    combine earlier ones."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bound = draw(st.sampled_from([0, 3, _HUGE]))
    entry = st.integers(-bound, bound)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                           st.integers(0, nrows - 1),
                                           st.integers(-2, 2)), max_size=3)):
        rows.append([a + c * b for a, b in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=300, deadline=None)
@given(_dense_int_matrices())
@example([[0] * 5] * 3)                              # zero
@example([[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])  # tall
@example([[1, 2, 3, 4, 5, 6], [2, 4, 6, 8, 10, 12]])  # wide, repeated
@example([[_HUGE, 1 - _HUGE, 7]])                    # 1 x n
@example([[_HUGE], [-_HUGE], [0], [3]])              # n x 1
# 200-digit rows with a minor of -1, one repeated
@example([[_HUGE + 1, _HUGE], [_HUGE, _HUGE - 1], [_HUGE + 1, _HUGE]])
def test_int_rank_matches_fraction_pivot_count(mat):
    want = len(ref.row_reduce(mat)[1])
    assert int_rank(mat) == rank(mat) == want
    assert int_rank(tuple(map(tuple, mat))) == want


@pytest.mark.parametrize("n", range(2, 17))
def test_int_rank_of_split_forms(n):
    forms = [split_symmetric_form(n)]
    if n % 2 == 0:
        forms += [split_symplectic_form(n), mirror_symplectic_form(n)]
    for form in forms:
        assert int_rank(form) == len(ref.row_reduce(form)[1]) == n


def test_int_rank_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged matrix"):
        int_rank([[1, 2, 3], [4, 5]])


def test_int_rank_sparse_rows():
    rows = [{0: 2, 5: -4}, {0: 1, 5: -2}, {3: 7}]
    assert int_rank(rows) == 2


def test_int_row_basis_is_spanning_independent_subset():
    rng = random.Random(17)
    for _ in range(20):
        m = random_int_matrix(rng, 7, 4)
        idx = int_row_basis(m)
        sub = [m[i] for i in idx]
        assert int_rank(sub) == len(idx) == int_rank(m)


def test_int_echelon_incremental():
    ech = IntEchelon()
    assert ech.insert([1, 2, 3])
    assert not ech.insert([2, 4, 6])
    assert ech.insert([0, 0, 1])
    assert ech.rank == 2


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_modp_rank_and_nullspace(p):
    rng = random.Random(p)
    for _ in range(15):
        m = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = modp_rank(m, p)
        ns = modp_nullspace(m, p)
        assert r + len(ns) == len(m[0])
        for v in ns:
            img = [sum(a * b for a, b in zip(row, v)) % p for row in m]
            assert all(x == 0 for x in img)


def _batch_cases(rng, p):
    """(N, m, n) integer arrays: empty batches and sides, single rows and
    columns, zero matrices, repeated rows, signed random entries."""
    yield np.zeros((0, 3, 4), dtype=np.int64)
    for m, n in ((0, 3), (3, 0), (0, 0), (1, 5), (5, 1), (1, 1), (3, 3),
                 (4, 6), (6, 4), (15, 6)):
        mats = rng.integers(-2 * p, 2 * p, size=(40, m, n))
        mats[:5] = 0
        if m > 1:
            mats[5:15, 1] = mats[5:15, 0]                 # a repeated row
            mats[15:20, m - 1] = 3 * mats[15:20, 0] + p   # a multiple, shifted
        yield mats


@pytest.mark.parametrize("p", _BATCH_PRIMES)
def test_modp_rank_batch_matches_modp_rank(p):
    rng = np.random.default_rng(p)
    for mats in _batch_cases(rng, p):
        got = modp_rank_batch(mats, p)
        assert got.shape == (len(mats),)
        assert got.tolist() == [modp_rank(m.tolist(), p) for m in mats]


@pytest.mark.parametrize("p", _BATCH_PRIMES)
def test_modp_rank_batch_across_blocks(p):
    # 40 distinct matrices tiled past the first block boundary
    rng = np.random.default_rng(100 + p)
    base = rng.integers(0, p, size=(40, 4, 3))
    base[::4, 2] = base[::4, 1]
    reps = _BLOCK // len(base) + 2
    mats = np.tile(base, (reps, 1, 1))
    assert len(mats) > _BLOCK
    want = [modp_rank(m.tolist(), p) for m in base] * reps
    assert modp_rank_batch(mats, p).tolist() == want


def test_modp_rank_batch_rejects_non_batch_shape():
    with pytest.raises(ValueError):
        modp_rank_batch(np.zeros((3, 3), dtype=np.int64), 2)


def test_modp_rank_batch_rejects_prime_past_int64_products():
    with pytest.raises(ValueError):
        modp_rank_batch(np.zeros((1, 2, 2), dtype=np.int64), (1 << 31) + 11)


def test_rational_sqrt():
    assert rational_sqrt(Q(9, 4)) == Q(3, 2)
    assert rational_sqrt(2) is None
    assert rational_sqrt(0) == 0
    assert rational_sqrt(-4) is None


def test_quadext_arithmetic():
    r2 = QuadExt(0, 1, 2)
    one_plus = 1 + r2
    one_minus = 1 - r2
    assert one_plus * one_minus == -1
    assert r2 * r2 == 2
    q = one_plus / one_minus
    assert q * one_minus == one_plus
    assert (r2 - r2) == 0
    with pytest.raises(ZeroDivisionError):
        one_plus / (r2 - r2)
    with pytest.raises(ValueError):
        r2 + QuadExt(0, 1, 3)
    # non-integer discriminant: sqrt(5/4) keeps its own field
    h = QuadExt(0, 1, Q(5, 4))
    assert h * h == Q(5, 4)
    w = (Q(1, 3) + h) / (Q(2, 7) - h)
    assert w * (Q(2, 7) - h) == Q(1, 3) + h
    assert (h / 3) * 3 == h and 1 / (1 / h) == h
    with pytest.raises(ZeroDivisionError):
        h / 0
    with pytest.raises(ZeroDivisionError):
        1 / (h - h)
    with pytest.raises(ValueError):
        h * r2
    # the public parts are the same Fractions as a plain a + b*sqrt(d)
    e = QuadExt(Q(1, 6), Q(-3, 4), 2)
    assert (e.a, e.b, e.d) == (Q(1, 6), Q(-3, 4), Q(2))
    assert all(type(v) is Q for v in (e.a, e.b, e.d))
    six_e = e * 6
    assert (six_e.a, six_e.b) == (Q(1), Q(-9, 2))
    assert (h.a, h.b, h.d) == (Q(0), Q(1), Q(5, 4))
    # with no sqrt(d) part it equals and hashes like an int or a Fraction
    for val in (3, Q(1, 3), Q(-7, 4), 0):
        z = QuadExt(val, 0, 2)
        assert z == val and hash(z) == hash(val) == hash(Q(val))
        assert z != val + 1 and z != Q(1, 5) + val
    assert r2 * r2 == 2 and hash(r2 * r2) == hash(2)
    assert (r2 + Q(1, 2)) - r2 == Q(1, 2)
    assert hash((r2 + Q(1, 2)) - r2) == hash(Q(1, 2))
    # equal elements built along different routes are equal and hash alike
    u = (1 + r2) / 4
    v = (Q(1, 2) + r2 / 2) / 2
    assert u == v and hash(u) == hash(v) and len({u, v}) == 1
    # mixed discriminants compare equal only through a common rational value
    assert QuadExt(3, 0, 2) == QuadExt(3, 0, 5)
    assert r2 != QuadExt(0, 1, 3)


def test_dot_and_matvec_exact():
    u = (Q(1, 3), Q(2))
    v = (Q(3), Q(1, 2))
    assert ref.dot(u, v) == Q(2)


def test_exact_scalar_normal_form():
    assert _exact_scalar(7) == 7 and type(_exact_scalar(7)) is int
    assert type(_exact_scalar(Q(6, 3))) is int
    assert _exact_scalar(Q(1, 3)) == Q(1, 3)
    assert type(_exact_scalar(True)) is int
    assert _exact_scalar("-4/6") == Q(-2, 3)
    assert type(_exact_scalar("4/2")) is int
    for bad in (0.5, 2.0, float("inf")):
        with pytest.raises(TypeError):
            _exact_scalar(bad)


def test_exact_rationals_accepts_what_fraction_accepts():
    # a plain decimal integer string is read by int, anything else by
    # Fraction; the accepted strings and their values are Fraction's
    texts = ["7", "-7", "007", "-0", " 7 ", "+7", "1_0", "1e3", "3.0",
             "3/4", "-6/4", "8/4", "\u0663"]
    got = exact_rationals(texts)
    assert got == [Q(t) for t in texts]
    for t, v in zip(texts, got):
        assert type(v) is (int if Q(t).denominator == 1 else Q), (t, v)
    assert exact_rationals([5, -2]) == [5, -2]
    for bad in (["x"], [""], ["-"], ["--5"], ["1/0"], [None], [[1]], ["1.5e"]):
        with pytest.raises(ValueError):
            exact_rationals(bad)


def test_exact_rationals_caps_the_decimal_exponent():
    # Fraction("1e-999999999") would build 10**999999999; the exponent is
    # refused before any digit of the power is built
    assert exact_rationals(["1e4300", "-1E-4300"]) == [10 ** 4300,
                                                      Q(-1, 10 ** 4300)]
    assert exact_rationals(["-2.5E-3", "1/3"]) == [Q(-1, 400), Q(1, 3)]
    for bad in ("1e-999999999", "9e9999999", "1e4301", "-2.5E-4301",
                " 1e+1_000_000 "):
        with pytest.raises(ValueError, match="exponent"):
            exact_rationals([bad])


@pytest.mark.parametrize("bad", [0.1, 2.0, True, False])
def test_exact_rationals_refuses_floats_and_booleans(bad):
    with pytest.raises(ValueError):
        exact_rationals(["1", bad])
