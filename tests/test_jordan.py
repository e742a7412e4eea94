"""Tests for the exceptional Jordan algebra layer: octonion arithmetic,
determinant/adjugate identities, rank stratification, constructive splits,
the derivation algebra, and the mod-p two-plane witness search."""

import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jordan_reference as ref
from secant.jordan import (
    FANO_LINES,
    AlbertElement,
    apply_matrix,
    f4_derivations,
    f4_pi2_witness_search,
    f4_rank,
    jordan_rank,
    oct_conj,
    oct_dot,
    oct_mul,
    oct_norm,
    rank1_from_chart,
    rank2_split,
    rank3_split,
    random_albert,
    random_rank1,
    random_rank2_tracefree,
)
from secant.jordan import _mult_table, _oct_kernel
from secant.linalg import QuadExt
from secant.ranks import albert_from_json, albert_to_json


def rand_oct(rng, bound=5):
    return tuple(Q(rng.randint(-bound, bound)) for _ in range(8))


# ---------------------------------------------------------------------------
# Octonion layer
# ---------------------------------------------------------------------------

def test_norm_multiplicative():
    rng = random.Random(11)
    for _ in range(80):
        u, v = rand_oct(rng), rand_oct(rng)
        assert oct_norm(oct_mul(u, v)) == oct_norm(u) * oct_norm(v)


def test_conjugation_anti_automorphism():
    rng = random.Random(12)
    for _ in range(40):
        u, v = rand_oct(rng), rand_oct(rng)
        assert oct_conj(oct_mul(u, v)) == oct_mul(oct_conj(v), oct_conj(u))


def test_alternative_laws():
    rng = random.Random(13)
    for _ in range(40):
        u, v = rand_oct(rng), rand_oct(rng)
        uu = oct_mul(u, u)
        assert oct_mul(u, oct_mul(u, v)) == oct_mul(uu, v)
        assert oct_mul(oct_mul(v, u), u) == oct_mul(v, uu)


def test_unit_and_conj_norm():
    rng = random.Random(14)
    one = (Q(1),) + (Q(0),) * 7
    for _ in range(20):
        u = rand_oct(rng)
        assert oct_mul(one, u) == u == oct_mul(u, one)
        # u * conj(u) = N(u) * 1
        prod = oct_mul(u, oct_conj(u))
        assert prod == tuple(oct_norm(u) if i == 0 else Q(0) for i in range(8))
        assert oct_dot(u, u) == oct_norm(u)


def test_bad_line_sets_rejected():
    for lines in (((1, 2, 3),) * 7,
                  ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
                   (3, 4, 7), (1, 2, 3))):
        with pytest.raises(ValueError):
            _mult_table(lines)
        # no product kernel is generated for a rejected table
        with pytest.raises(ValueError):
            _oct_kernel(lines)


_INTS = st.integers(-10 ** 12, 10 ** 12)
_FRACTIONS = st.fractions(-10 ** 6, 10 ** 6, max_denominator=60)
_QUADEXT = st.builds(lambda a, b: QuadExt(a, b, Q(5, 3)), _FRACTIONS, _FRACTIONS)
#: Coordinates of each kind; the Fraction and QuadExt kinds mix in ints
_SCALARS = {
    "int": _INTS,
    "fraction": st.one_of(_INTS, _FRACTIONS),
    "quadext": st.one_of(_INTS, _FRACTIONS, _QUADEXT),
}


# the reference loops over the entries of the table `lines`
@pytest.mark.parametrize("lines", [FANO_LINES])
@pytest.mark.parametrize("kind", sorted(_SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_oct_kernel_matches_loop_reference(lines, kind, data):
    octonion = st.tuples(*[_SCALARS[kind]] * 8)
    u, v = data.draw(octonion), data.draw(octonion)
    got, want = oct_mul(u, v), ref.oct_mul(u, v, lines)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    _assert_exact(got)
    if all(type(c) is int or (type(c) is Q and c.denominator == 1)
           for c in u + v):
        assert all(type(c) is int for c in got)


# ---------------------------------------------------------------------------
# Element plumbing
# ---------------------------------------------------------------------------

def test_coords_roundtrip():
    rng = random.Random(15)
    for _ in range(10):
        e = random_albert(rng)
        assert AlbertElement.from_coords(e.coords()) == e
    with pytest.raises(ValueError):
        AlbertElement.from_coords([1] * 26)


def test_linear_structure():
    rng = random.Random(16)
    a, b = random_albert(rng), random_albert(rng)
    assert a + b == b + a
    assert (a - b) + b == a
    assert a.scale(3) == a + a + a
    assert (-a) + a == AlbertElement.zero()
    assert 2 * a == a.scale(2) == a * 2


def test_float_coordinates_rejected():
    with pytest.raises(TypeError):
        AlbertElement(0.5)
    with pytest.raises(TypeError):
        AlbertElement.from_coords([1.0] + [0] * 26)
    with pytest.raises(TypeError):
        AlbertElement.identity().scale(1.5)
    with pytest.raises(TypeError):
        rank1_from_chart(2.0, None, None)


def _assert_exact(values):
    """Every value is an int, a Fraction with denominator > 1, or a QuadExt:
    ints stay ints and Fractions appear only where a division forced one."""
    for v in values:
        assert type(v) in (int, Q, QuadExt), (type(v), v)
        if type(v) is Q:
            assert v.denominator > 1, v


def test_coordinates_stay_exact():
    rng = random.Random(42)
    whole = random_albert(rng, 4)
    assert all(type(v) is int for v in whole.coords())
    assert all(type(v) is int for v in whole.adjugate().coords())
    assert type(whole.det3()) is int
    halves = AlbertElement(1, x=(1,) + (0,) * 7).jordan(
        AlbertElement(0, y=(0, 1) + (0,) * 6))
    assert Q(1, 2) in halves.coords()
    _assert_exact(halves.coords())
    samples = [whole, random_rank1(rng), random_rank2_tracefree(rng),
               whole.scale(Q(2, 3))]
    for e in samples:
        _assert_exact(e.coords())
        _assert_exact(e.jordan(e).coords())
        _assert_exact(e.adjugate().coords())
        _assert_exact([e.det3(), e.trace(), e.inner(e)])
    degrees = set()
    for _ in range(6):
        sp = rank2_split(random_rank2_tracefree(rng))
        degrees.add(sp.field_degree)
        for piece in (sp.plus, sp.minus):
            _assert_exact(piece.coords())
            _assert_exact(piece.adjugate().coords())
            _assert_exact([piece.det3()])
        if sp.field_degree == 2:
            assert any(type(v) is QuadExt for v in sp.plus.coords())
    assert 2 in degrees
    for _ in range(4):
        e = random_albert(rng, 3)
        if jordan_rank(e) != 3:
            continue
        sp = rank3_split(e, random.Random(7))
        for part in (sp.piece, sp.residual):
            _assert_exact(part.coords())
            _assert_exact(part.adjugate().coords())
        assert sp.residual.det3() == 0 and type(sp.residual.det3()) is int


def test_trace_form_is_trace_of_product():
    rng = random.Random(17)
    for _ in range(25):
        a, b = random_albert(rng, 4), random_albert(rng, 4)
        assert a.inner(b) == a.jordan(b).trace()
        assert a.inner(b) == b.inner(a)


def test_trace_form_positive_definite():
    rng = random.Random(18)
    for _ in range(25):
        a = random_albert(rng, 6)
        if not a.is_zero():
            assert a.inner(a) > 0


def test_jordan_product_commutative_bilinear():
    rng = random.Random(19)
    a, b, c = (random_albert(rng, 4) for _ in range(3))
    assert a.jordan(b) == b.jordan(a)
    assert (a + b).jordan(c) == a.jordan(c) + b.jordan(c)
    assert a.scale(5).jordan(b) == a.jordan(b).scale(5)


def test_jordan_identity():
    # (x o y) o (x o x) = x o (y o (x o x)) -- the defining weak associativity
    rng = random.Random(20)
    for _ in range(10):
        x, y = random_albert(rng, 3), random_albert(rng, 3)
        xsq = x.jordan(x)
        assert x.jordan(y).jordan(xsq) == x.jordan(y.jordan(xsq))


# ---------------------------------------------------------------------------
# Determinant and adjugate
# ---------------------------------------------------------------------------

def test_det3_commutative_specialization():
    """With all octonion slots scalar, det3 must equal the ordinary 3x3
    symmetric determinant a b c + 2 x y z - a x^2 - b y^2 - c z^2."""
    rng = random.Random(21)
    for _ in range(60):
        a, b, c, x, y, z = (rng.randint(-6, 6) for _ in range(6))
        sc = lambda v: (v,) + (0,) * 7
        e = AlbertElement(a, b, c, sc(x), sc(y), sc(z))
        assert e.det3() == a * b * c + 2 * x * y * z - a * x * x - b * y * y - c * z * z


def test_adjoint_identity():
    rng = random.Random(22)
    ident = AlbertElement.identity()
    for _ in range(40):
        e = random_albert(rng, 5)
        assert e.jordan(e.adjugate()) == ident.scale(e.det3())


def test_double_adjugate():
    rng = random.Random(23)
    for _ in range(20):
        e = random_albert(rng, 4)
        assert e.adjugate().adjugate() == e.scale(e.det3())


def test_det3_linearization():
    rng = random.Random(24)
    for _ in range(20):
        x, y = random_albert(rng, 4), random_albert(rng, 4)
        d0, d3 = x.det3(), y.det3()
        c1 = x.adjugate().inner(y)
        c2 = x.inner(y.adjugate())
        for t in (1, 2, 3, -1):
            assert (x + y.scale(t)).det3() == d0 + t * c1 + t * t * c2 + t ** 3 * d3


def test_adjugate_pins():
    assert AlbertElement.diag(1, 1, 0).adjugate() == AlbertElement.diag(0, 0, 1)
    assert AlbertElement.identity().adjugate() == AlbertElement.identity()
    assert AlbertElement.identity().det3() == 1
    assert AlbertElement.diag(2, 3, 5).det3() == 30


def test_cross_polarization():
    rng = random.Random(25)
    a, b = random_albert(rng, 4), random_albert(rng, 4)
    assert a.cross(b) == b.cross(a)
    assert a.cross(a) == a.adjugate().scale(2)
    # bilinearity in the first slot
    c = random_albert(rng, 4)
    assert (a + c).cross(b) == a.cross(b) + c.cross(b)


# ---------------------------------------------------------------------------
# Rank stratification
# ---------------------------------------------------------------------------

def test_rank_pins():
    assert jordan_rank(AlbertElement.zero()) == 0
    assert jordan_rank(AlbertElement.diag(1, 0, 0)) == 1
    assert jordan_rank(AlbertElement.diag(1, 1, 0)) == 2
    assert jordan_rank(AlbertElement.diag(1, 1, 1)) == 3
    assert jordan_rank(AlbertElement.identity()) == 3


def test_rank_scale_invariant():
    rng = random.Random(26)
    for _ in range(10):
        e = random_albert(rng, 4)
        r = jordan_rank(e)
        assert jordan_rank(e.scale(Q(7, 3))) == r
        assert jordan_rank(-e) == r


def test_rank1_chart():
    rng = random.Random(27)
    for _ in range(25):
        e = random_rank1(rng)
        assert jordan_rank(e) == 1
        assert e.adjugate().is_zero()
        assert e.det3() == 0
        # rank-1 elements over Q always have nonzero trace
        assert e.trace() != 0
    with pytest.raises(ValueError):
        rank1_from_chart(0, None, None)


def test_rank2_elements():
    rng = random.Random(28)
    for _ in range(15):
        e = random_rank2_tracefree(rng)
        assert e.trace() == 0
        assert e.det3() == 0
        assert not e.adjugate().is_zero()
        assert jordan_rank(e) == 2


def test_random_elements_are_generically_full_rank():
    rng = random.Random(29)
    ranks = [jordan_rank(random_albert(rng, 9)) for _ in range(40)]
    assert ranks.count(3) >= 35


def test_f4_rank_validation():
    with pytest.raises(ValueError):
        f4_rank(AlbertElement.zero())
    with pytest.raises(ValueError):
        f4_rank(AlbertElement.identity())
    assert f4_rank(AlbertElement.diag(1, -1, 0)) == 2
    assert f4_rank(AlbertElement.diag(1, 1, -2)) == 3
    rng = random.Random(30)
    e = random_rank2_tracefree(rng)
    assert f4_rank(e) == jordan_rank(e) == 2


# ---------------------------------------------------------------------------
# Constructive splits
# ---------------------------------------------------------------------------

def test_rank2_split_postconditions():
    rng = random.Random(31)
    seen_degrees = set()
    for _ in range(20):
        e = random_rank2_tracefree(rng)
        sp = rank2_split(e)
        assert sp.plus + sp.minus == e
        assert jordan_rank(sp.plus) == 1
        assert jordan_rank(sp.minus) == 1
        assert sp.plus.jordan(sp.minus).is_zero()
        assert sp.disc > 0
        assert sp.field_degree in (1, 2)
        seen_degrees.add(sp.field_degree)
        # the quadratic invariant is the negative of half the norm
        assert sp.disc == Q(e.inner(e)) / 2
    assert 2 in seen_degrees  # generic splits need a genuine extension


def test_rank2_split_rational_case():
    # diag(1, -1, 0) has eigenvalues +-1: split stays rational
    e = AlbertElement.diag(1, -1, 0)
    sp = rank2_split(e)
    assert sp.field_degree == 1
    assert sp.plus == AlbertElement.diag(1, 0, 0)
    assert sp.minus == AlbertElement.diag(0, -1, 0)


def test_rank2_split_validation():
    with pytest.raises(ValueError):
        rank2_split(AlbertElement.diag(1, 1, -2))  # rank 3
    with pytest.raises(ValueError):
        rank2_split(AlbertElement.diag(1, 1, 0))  # not trace-free
    rng = random.Random(32)
    e = random_rank2_tracefree(rng)
    sp = rank2_split(e)
    if sp.field_degree == 2:
        with pytest.raises(ValueError):
            rank2_split(sp.plus.scale(1))  # QuadExt coordinates rejected


def test_rank3_split_postconditions():
    rng = random.Random(33)
    for _ in range(12):
        e = random_albert(rng, 5)
        if jordan_rank(e) != 3:
            continue
        sp = rank3_split(e, random.Random(77))
        assert sp.piece + sp.residual == e
        assert jordan_rank(sp.piece) == 1
        assert sp.residual.det3() == 0
        assert jordan_rank(sp.residual) <= 2
        assert sp.attempts >= 1


def test_rank3_split_validation_and_determinism():
    with pytest.raises(ValueError):
        rank3_split(AlbertElement.diag(1, 1, 0))
    e = AlbertElement.diag(2, 3, 5)
    s1 = rank3_split(e, random.Random(5))
    s2 = rank3_split(e, random.Random(5))
    assert s1.piece == s2.piece and s1.residual == s2.residual


def _square_disc_rank2(rng):
    """Trace-free rank-2 element whose discriminant is a square: (b + c)
    times a diagonal idempotent minus a rank-1 element of the complementary
    2x2 block (its diagonal b, c with bc = N(w) and off-diagonal slot w), so
    the eigenvalues are +-(b + c)."""
    w = tuple(rng.randint(-3, 3) for _ in range(8))
    if not any(w):
        w = (1,) + w[1:]
    norm = oct_norm(w)
    b = rng.choice([k for k in range(1, norm + 1) if norm % k == 0])
    sign = rng.choice((1, -1))
    b, c = sign * b, sign * (norm // b)
    pos = rng.randrange(3)
    diag = [-b, -c]
    diag.insert(pos, b + c)
    slots = [None, None, None]
    slots[pos] = tuple(-v for v in w)
    return AlbertElement(*diag, *slots)


def _rank2_inputs(rng, count):
    for t in range(count):
        if t % 5 == 0:
            e = _square_disc_rank2(rng)
        else:
            e = random_rank2_tracefree(rng, 2 + t % 3)
        if t % 4 == 1:
            e = e.scale(rng.choice((1, -1))
                        * Q(rng.randint(1, 12), rng.randint(2, 12)))
        yield e


def _assert_same_element(got, want):
    assert [(type(v), repr(v)) for v in got.coords()] == \
        [(type(v), repr(v)) for v in want.coords()]


def test_rank2_split_matches_quadext_reference():
    rng = random.Random(2025)
    degrees = set()
    for e in _rank2_inputs(rng, 600):
        got, want = rank2_split(e), ref.rank2_split(e)
        _assert_same_element(got.plus, want.plus)
        _assert_same_element(got.minus, want.minus)
        assert type(got.disc) is type(want.disc) and got.disc == want.disc
        assert got.field_degree == want.field_degree
        degrees.add(got.field_degree)
    assert degrees == {1, 2}


def test_rank3_split_matches_fraction_reference():
    rng = random.Random(2026)
    made = 0
    attempts = set()
    while made < 400:
        if made % 4 == 3:
            # x# = k^2 diag(-1, -1, 1) pairs to zero with some rank-1 samples
            k = rng.randint(1, 4)
            e = AlbertElement.diag(k, k, -k)
        else:
            e = random_albert(rng, 1 + made % 6)
        if made % 4 == 1:
            e = e.scale(Q(rng.randint(1, 12), rng.randint(2, 12)))
        if jordan_rank(e) != 3:
            continue
        made += 1
        sub = "rank3/%d" % made
        got = rank3_split(e, random.Random(sub))
        want = ref.rank3_split(e, random.Random(sub))
        _assert_same_element(got.piece, want.piece)
        _assert_same_element(got.residual, want.residual)
        assert got.attempts == want.attempts
        attempts.add(got.attempts)
    assert max(attempts) > 1


# ---------------------------------------------------------------------------
# Derivation algebra
# ---------------------------------------------------------------------------

def test_derivation_count_and_cache():
    d1 = f4_derivations()
    d2 = f4_derivations()
    assert len(d1) == 52
    assert d1 is d2  # computed once


def test_derivations_are_integer_matrices():
    for d in f4_derivations()[:5]:
        assert len(d) == 27 and all(len(row) == 27 for row in d)
        assert all(isinstance(e, int) for row in d for e in row)


def test_derivation_leibniz():
    rng = random.Random(35)
    derivs = f4_derivations()
    for _ in range(8):
        d = derivs[rng.randrange(52)]
        a, b = random_albert(rng, 3), random_albert(rng, 3)
        lhs = apply_matrix(d, a.jordan(b))
        rhs = apply_matrix(d, a).jordan(b) + a.jordan(apply_matrix(d, b))
        assert lhs == rhs


def test_derivation_kills_identity_and_skew():
    rng = random.Random(36)
    derivs = f4_derivations()
    ident = AlbertElement.identity()
    for d in (derivs[0], derivs[17], derivs[51]):
        assert apply_matrix(d, ident).is_zero()
        a, b = random_albert(rng, 3), random_albert(rng, 3)
        assert a.inner(apply_matrix(d, b)) + apply_matrix(d, a).inner(b) == 0
        # trace of any derivative vanishes (image is trace-free)
        assert apply_matrix(d, a).trace() == 0


def test_derivation_preserves_det3_infinitesimally():
    """Directional derivative of det3 along a derivation vanishes:
    <x#, Dx> = 0 for all x."""
    rng = random.Random(37)
    derivs = f4_derivations()
    for _ in range(10):
        d = derivs[rng.randrange(52)]
        x = random_albert(rng, 4)
        assert x.adjugate().inner(apply_matrix(d, x)) == 0


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def test_witness_search_validation():
    with pytest.raises(ValueError):
        f4_pi2_witness_search(prime=100)
    with pytest.raises(ValueError):
        f4_pi2_witness_search(prime=7)
    with pytest.raises(ValueError):
        f4_pi2_witness_search(prime=49)


def test_witness_search_p101():
    res = f4_pi2_witness_search(prime=101, seed=0, budget=200)
    assert res.found
    assert res.stats == (4, 1)
    assert res.membership_ok
    assert res.tangent_rank == res.expected_tangent_rank == 21
    assert res.prime == 101 and res.seed == 0
    assert len(res.t_coeffs) == 52
    d = res.as_dict()
    json.dumps(d)  # serializable
    # deterministic
    res2 = f4_pi2_witness_search(prime=101, seed=0, budget=200)
    assert res2.as_dict() == d


def test_witness_search_other_prime():
    res = f4_pi2_witness_search(prime=211, seed=3, budget=200)
    assert res.found and res.stats == (4, 1)
    assert res.tangent_rank == res.expected_tangent_rank


def test_witness_pair_properties():
    """Recheck the found pair independently: both rank 1 mod p, isotropic,
    orthogonal, with vanishing cross product."""
    p = 101
    res = f4_pi2_witness_search(prime=p, seed=0, budget=200)
    ex = AlbertElement.from_coords([Q(v) for v in res.x_coords])
    ey = AlbertElement.from_coords([Q(v) for v in res.y_coords])
    for e in (ex, ey):
        assert e.trace() == 0
        assert all(int(q) % p == 0 for q in e.adjugate().coords())
        assert int(e.inner(e)) % p == 0
    assert int(ex.inner(ey)) % p == 0
    assert all(int(q) % p == 0 for q in ex.cross(ey).coords())


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    rng = random.Random(38)
    for _ in range(10):
        e = random_albert(rng, 7)
        obj = albert_to_json(e)
        assert obj["shape"] == "jordan"
        assert len(obj["coords"]) == 27
        back = albert_from_json(json.loads(json.dumps(obj)))
        assert back == e


def test_json_fractions():
    e = AlbertElement.diag(Q(3, 4), Q(-1, 2), 0)
    obj = albert_to_json(e)
    assert obj["coords"][0] == "3/4"
    assert albert_from_json(obj) == e


def test_json_validation():
    # each document has the dims [27], so it fails on the coordinate it names
    with pytest.raises(ValueError):
        albert_from_json([])
    with pytest.raises(ValueError):
        albert_from_json({"shape": "tensor", "dims": [27], "coords": ["1"] * 27})
    with pytest.raises(ValueError):
        albert_from_json({"shape": "jordan", "dims": [27], "coords": ["1"] * 26})
    with pytest.raises(ValueError):
        albert_from_json({"shape": "jordan", "dims": [27],
                          "coords": ["1"] * 26 + ["x/y"]})
    with pytest.raises(ValueError):  # a JSON float is not an exact rational
        albert_from_json({"shape": "jordan", "dims": [27],
                          "coords": ["1"] * 26 + [0.1]})
    with pytest.raises(ValueError, match="expected shape 'jordan'"):
        albert_from_json({"shape": "quadric", "dims": [2], "coords": ["1", "0"]})


def test_json_rejects_extension_coordinates():
    rng = random.Random(39)
    e = random_rank2_tracefree(rng)
    sp = rank2_split(e)
    if sp.field_degree == 2:
        with pytest.raises(ValueError):
            albert_to_json(sp.plus)
    else:  # resample deterministically until a quadratic case shows up
        e2 = random_rank2_tracefree(random.Random(40))
        sp2 = rank2_split(e2)
        if sp2.field_degree == 2:
            with pytest.raises(ValueError):
                albert_to_json(sp2.plus)
