from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie_reference import ALL_TYPES, fraction_root_data
from secant.rootsys import (
    CapExceeded,
    GroupDescriptor,
    SimpleType,
    build_root_system,
    canonicalize,
    format_descriptor,
    height,
    parse_descriptor,
    weyl_dim,
    weyl_group_order,
    weyl_orbit,
)

TYPES = [
    SimpleType("A", 1), SimpleType("A", 2), SimpleType("A", 5),
    SimpleType("B", 2), SimpleType("B", 4),
    SimpleType("C", 2), SimpleType("C", 3),
    SimpleType("D", 3), SimpleType("D", 5),
    SimpleType("E", 6), SimpleType("E", 7), SimpleType("E", 8),
    SimpleType("F", 4), SimpleType("G", 2),
]

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A5": 30, "B2": 8, "B4": 32, "C2": 8, "C3": 18,
    "D3": 12, "D5": 40, "E6": 72, "E7": 126, "E8": 240, "F4": 48, "G2": 12,
}


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_root_counts(st_):
    sys = build_root_system(st_)
    assert len(sys.roots) == ROOT_COUNTS[str(st_)]
    assert 2 * len(sys.positive_roots) == len(sys.roots)


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_roots_match_fraction_reference(st_):
    # integer reflections of coefficient tuples give the same roots, order,
    # coefficients, Cartan matrix and highest-root marks as reflections of
    # rational ε-vectors
    pos, coeffs, cartan, marks = fraction_root_data(st_)
    sys = build_root_system(st_)
    assert sys.positive_roots == pos
    assert sys.roots == frozenset(coeffs)
    assert all(sys.root_coeffs(r) == c for r, c in coeffs.items())
    assert sys.positive_coeffs == tuple(coeffs[r] for r in pos)
    assert sys.cartan == cartan
    assert sys.highest_root_marks == marks
    assert all(type(x) is Q for r in sys.roots for x in r)

    def eps(c):
        return tuple(sum(x * a[t] for x, a in zip(c, sys.simple_roots))
                     for t in range(sys.ndim))
    for a in sys.positive_coeffs[:12]:
        for b in sys.positive_coeffs[-12:]:
            assert sys.form(a, b) == sys.gram_den * sys.inner(eps(a), eps(b))


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_roots_closed_under_negation_and_integral(st_):
    sys = build_root_system(st_)
    for r in sys.roots:
        neg = tuple(-x for x in r)
        assert neg in sys.roots
        coeffs = sys.root_coeffs(r)
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_long_roots_have_squared_length_two(st_):
    sys = build_root_system(st_)
    norms = {sys.inner(r, r) for r in sys.roots}
    assert max(norms) == 2


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_sum_of_positive_roots_is_strictly_dominant(st_):
    sys = build_root_system(st_)
    tworho = [sum(col) for col in zip(*sys.positive_roots)]
    for i in range(st_.rank):
        assert sys.coroot_pairing(tuple(tworho), i) == 2


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_fundamental_weights_dual_to_coroots(st_):
    sys = build_root_system(st_)
    for i, w in enumerate(sys.fundamental_weights):
        for j in range(st_.rank):
            assert sys.coroot_pairing(w, j) == (1 if i == j else 0)


# Weyl-dimension pins for every label the package's tables rely on.
DIM_PINS = [
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 0, 0, 0, 1, 0), 27),
    ("E6", (0, 0, 0, 0, 0, 1), 78),
    ("E7", (1, 0, 0, 0, 0, 0, 0), 56),
    ("E7", (0, 0, 0, 0, 0, 1, 0), 133),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0), 248),
    ("F4", (1, 0, 0, 0), 26),
    ("F4", (0, 1, 0, 0), 273),
    ("F4", (0, 0, 1, 0), 1274),
    ("F4", (0, 0, 0, 1), 52),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("A4", (0, 1, 0, 0), 10),
    ("A4", (2, 0, 0, 0), 15),
    ("B4", (1, 0, 0, 0), 9),
    ("B4", (0, 0, 0, 1), 16),
    ("C3", (0, 1, 0), 14),
    ("C3", (0, 0, 1), 14),
    ("C3", (2, 0, 0), 21),
    ("D5", (1, 0, 0, 0, 0), 10),
    ("D5", (0, 0, 0, 1, 0), 16),
    ("D5", (0, 0, 0, 0, 1), 16),
]


@pytest.mark.parametrize("name,marks,dim", DIM_PINS)
def test_weyl_dimension_pins(name, marks, dim):
    st_ = SimpleType(name[0], int(name[1:]))
    assert weyl_dim(st_, marks) == dim


ADJOINT_PINS = [
    ("A5", (1, 0, 0, 0, 1)),
    ("B4", (0, 1, 0, 0)),
    ("C3", (2, 0, 0)),
    ("D5", (0, 1, 0, 0, 0)),
    ("E6", (0, 0, 0, 0, 0, 1)),
    ("E7", (0, 0, 0, 0, 0, 1, 0)),
    ("E8", (1, 0, 0, 0, 0, 0, 0, 0)),
    ("F4", (0, 0, 0, 1)),
    ("G2", (0, 1)),
]


@pytest.mark.parametrize("name,marks", ADJOINT_PINS)
def test_highest_root_marks(name, marks):
    st_ = SimpleType(name[0], int(name[1:]))
    assert build_root_system(st_).highest_root_marks == marks


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_highest_root_marks_derived_once(st_):
    # stored when the system is built, not recomputed on each read
    sys = build_root_system(st_)
    assert "highest_root_marks" in vars(sys)
    assert sys.highest_root_marks == sys.coroot_marks(sys.positive_coeffs[-1])


def test_orbit_sizes():
    a1 = build_root_system(SimpleType("A", 1))
    assert weyl_orbit((1,), a1) == frozenset({(1,), (-1,)})
    a2 = build_root_system(SimpleType("A", 2))
    assert len(weyl_orbit((1, 1), a2)) == 6  # highest-root orbit
    b3 = build_root_system(SimpleType("B", 3))
    assert len(weyl_orbit((1, 0, 0), b3)) == 6  # ±ε_i


def test_orbit_cap():
    e8 = build_root_system(SimpleType("E", 8))
    with pytest.raises(CapExceeded):
        weyl_orbit((1, 0, 0, 0, 0, 0, 0, 0), e8, cap=100)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    idx=st.integers(min_value=0, max_value=len(TYPES) - 1),
)
def test_orbit_size_divides_weyl_order(data, idx):
    st_ = TYPES[idx]
    if st_.family == "E" and st_.rank >= 7:
        st_ = SimpleType("E", 6)  # keep runtime sane
    marks = tuple(
        data.draw(st.integers(min_value=0, max_value=2), label="mark")
        for _ in range(st_.rank))
    sys = build_root_system(st_)
    orbit = weyl_orbit(marks, sys)
    assert weyl_group_order(st_) % len(orbit) == 0


def test_root_system_rank_bounds():
    for bad in [("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4)]:
        with pytest.raises(ValueError):
            build_root_system(SimpleType(*bad))
    with pytest.raises(ValueError):
        SimpleType("H", 4)
    with pytest.raises(ValueError):
        SimpleType("A", 0)


def test_parse_format_roundtrip():
    for text in ["E8[0,0,0,0,0,0,1,0]", "A2xC3[1,0|0,1,0]", "A1[3]",
                 "A1xA1xA1[1|2|1]"]:
        g = parse_descriptor(text)
        assert format_descriptor(g) == text
        assert parse_descriptor(format_descriptor(g)) == g


def test_parse_errors():
    for bad in ["A2[1]", "A2[1,2,3]", "A2xC3[1,0]", "Q3[1,1,1]", "A2[1,-1]",
                "A2", "A0[]", "A2[one,two]"]:
        with pytest.raises(ValueError):
            parse_descriptor(bad)


def test_height_additive():
    g = parse_descriptor("A2xC3[1,0|0,2,0]")
    assert height(g) == 3
    assert height((1, 0)) + height((0, 2, 0)) == 3


def test_canonicalize_low_rank_coincidences():
    # B1 and C1 are A1 in disguise
    g = canonicalize(parse_descriptor("B1[1]"))
    assert g.factors == ((SimpleType("A", 1), (1,)),)
    g = canonicalize(parse_descriptor("C1[2]"))
    assert g.factors == ((SimpleType("A", 1), (2,)),)
    # D2 splits into two A1 factors; zero-mark factor is dropped
    g = canonicalize(parse_descriptor("D2[1,0]"))
    assert g.factors == ((SimpleType("A", 1), (1,)),)
    g = canonicalize(parse_descriptor("D2[1,2]"))
    assert g.factors == ((SimpleType("A", 1), (1,)), (SimpleType("A", 1), (2,)))


def test_canonicalize_d3_matches_a3_orbits():
    # the 6-dim vector label of D3 is the middle fundamental of A3,
    # the two 4-dim spin labels are the end nodes
    for d3_marks, a3_marks in [((1, 0, 0), (0, 1, 0)),
                               ((0, 1, 0), (1, 0, 0)),
                               ((0, 0, 1), (0, 0, 1))]:
        g = canonicalize(GroupDescriptor(((SimpleType("D", 3), d3_marks),)))
        assert g.factors == ((SimpleType("A", 3), a3_marks),)
        d3 = build_root_system(SimpleType("D", 3))
        a3 = build_root_system(SimpleType("A", 3))
        assert len(weyl_orbit(d3_marks, d3)) == len(weyl_orbit(a3_marks, a3))


def test_canonicalize_b2_is_c2_reversed():
    g = canonicalize(parse_descriptor("B2[0,1]"))
    assert g.factors == ((SimpleType("C", 2), (1, 0)),)
    b2 = build_root_system(SimpleType("B", 2))
    c2 = build_root_system(SimpleType("C", 2))
    assert len(weyl_orbit((0, 1), b2)) == len(weyl_orbit((1, 0), c2)) == 4


def test_canonicalize_sorts_and_drops():
    g = canonicalize(parse_descriptor("C3xA2[0,0,0|1,0]"))
    assert g.factors == ((SimpleType("A", 2), (1, 0)),)
    g = canonicalize(parse_descriptor("C2xA2[1,0|1,0]"))
    assert [str(s) for s, _ in g.factors] == ["A2", "C2"]


def test_weyl_group_orders():
    rng = random.Random(3)
    for st_ in TYPES:
        if weyl_group_order(st_) > 10 ** 6:
            continue  # a generic orbit would exceed the default cap
        sys = build_root_system(st_)
        marks = tuple(rng.randint(0, 1) for _ in range(st_.rank))
        orbit = weyl_orbit(marks, sys)
        assert weyl_group_order(st_) % len(orbit) == 0
    # large types: fundamental-weight orbits stay small
    e8 = build_root_system(SimpleType("E", 8))
    assert len(weyl_orbit((1, 0, 0, 0, 0, 0, 0, 0), e8)) == 240
    e7 = build_root_system(SimpleType("E", 7))
    assert len(weyl_orbit((1, 0, 0, 0, 0, 0, 0), e7)) == 56
