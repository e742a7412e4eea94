from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lie_reference import (
    ALL_TYPES,
    cleared_gram,
    fraction_coroot_pairing,
    fraction_form,
    fraction_fundamental_weights,
    fraction_root_data,
    fraction_secant_orbit_reps,
    fraction_weyl_dim,
    weyl_group_order,
    weyl_orbit,
)
from secant.chevalley import adjoint_pair_classes, build_chevalley
from secant.rootsys import (
    GroupDescriptor,
    SimpleType,
    build_root_system,
    canonicalize,
    diagram,
    format_descriptor,
    height,
    parse_descriptor,
    weyl_dim,
)
from secant.chopping import _candidate_types

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


def _all_roots(sys):
    """Every root as a coefficient tuple: the positive ones and their
    negatives."""
    return set(sys.positive_coeffs) | {
        tuple(-c for c in r) for r in sys.positive_coeffs}


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_root_counts(st_):
    sys = build_root_system(st_)
    assert len(_all_roots(sys)) == ROOT_COUNTS[str(st_)]
    assert 2 * len(sys.positive_coeffs) == len(_all_roots(sys))


@pytest.mark.parametrize("st_", ALL_TYPES + [
    SimpleType(f, n) for f in "BCD" for n in (16, 32)], ids=str)
def test_gram_matches_cleared_epsilon_gram(st_):
    # the Gram matrix read off the Dynkin diagram is the form on the
    # ε-coordinate simple roots, cleared to integers over one denominator
    sys = build_root_system(st_)
    assert (sys.gram, sys.gram_den) == cleared_gram(st_)


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_roots_match_fraction_reference(st_):
    # integer reflections of coefficient tuples give the same roots, order,
    # coefficients, Cartan matrix and highest-root marks as reflections of
    # rational ε-vectors, and the integer Gram matrix gives their form
    pos, coeffs, cartan, marks = fraction_root_data(st_)
    sys = build_root_system(st_)
    assert sys.positive_coeffs == tuple(coeffs[r] for r in pos)
    assert _all_roots(sys) == set(coeffs.values())
    assert sys.cartan == cartan
    assert sys.highest_root_marks == marks
    assert all(type(x) is int for c in sys.positive_coeffs for x in c)
    assert all(type(x) is int for row in sys.gram for x in row)

    _, inner = fraction_form(st_)
    eps = {c: r for r, c in coeffs.items()}
    for a in sys.positive_coeffs[:12]:
        for b in sys.positive_coeffs[-12:]:
            assert sys.form(a, b) == sys.gram_den * inner(eps[a], eps[b])


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_roots_closed_under_negation_and_integral(st_):
    # the root set is closed under every simple reflection (so under
    # negation: s_i α_i = -α_i), and each root has all coefficients of
    # one sign
    sys = build_root_system(st_)
    roots = _all_roots(sys)
    for r in roots:
        assert tuple(-x for x in r) in roots
        for i, m in enumerate(sys.coroot_marks(r)):
            assert r[:i] + (r[i] - m,) + r[i + 1:] in roots
    for c in sys.positive_coeffs:
        assert all(type(x) is int and x >= 0 for x in c)


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_long_roots_have_squared_length_two(st_):
    sys = build_root_system(st_)
    norms = {Q(sys.form(r, r), sys.gram_den) for r in _all_roots(sys)}
    assert max(norms) == 2


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_sum_of_positive_roots_is_strictly_dominant(st_):
    sys = build_root_system(st_)
    tworho = [sum(col) for col in zip(*sys.positive_coeffs)]
    assert sys.coroot_marks(tworho) == (2,) * st_.rank


def _unit(n, i):
    return tuple(int(i == j) for j in range(n))


@pytest.mark.parametrize("st_", TYPES, ids=str)
def test_fundamental_weights_dual_to_coroots(st_):
    # ⟨ω_i, α_j∨⟩ = 2(ω_i, α_j)/(α_j, α_j) = δ_ij on ε-vectors
    for i, w in enumerate(fraction_fundamental_weights(st_)):
        for j in range(st_.rank):
            assert fraction_coroot_pairing(st_, w, j) == (1 if i == j else 0)


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_weight_data_match_fraction_reference(st_):
    # the Weyl dimension agrees with the ε-coordinate reference at every
    # fundamental weight and at the adjoint weight
    sys = build_root_system(st_)
    n = st_.rank
    for marks in [_unit(n, i) for i in range(n)] + [sys.highest_root_marks]:
        assert weyl_dim(st_, marks) == fraction_weyl_dim(st_, marks)


@pytest.mark.parametrize("st_", ALL_TYPES, ids=str)
def test_adjoint_pair_classes_match_fraction_reference(st_):
    # the root-list scan gives the classes of the Weyl-orbit walk on the
    # adjoint weight, with the form on ε-vectors: value and partner
    alg = build_chevalley(st_)
    sys = alg.system
    marks = sys.highest_root_marks
    got = [(v, sys.coroot_marks(beta))
           for v, beta in sorted(adjoint_pair_classes(alg).items(),
                                 reverse=True)]
    assert got == fraction_secant_orbit_reps(marks, st_,
                                             weyl_orbit(marks, sys))


@pytest.mark.parametrize("name, with_self", [
    ("A1", False), ("A2", False), ("C3", True), ("G2", True), ("E8", True)])
def test_adjoint_self_pair_only_with_a_zero_mark(name, with_self):
    # θ pairs with itself, value (θ, θ) = 2, exactly when its stabilizer
    # in W is nontrivial: some mark of θ is 0, true except in A1 and A2
    alg = build_chevalley(SimpleType(name[0], int(name[1:])))
    theta = alg.system.positive_coeffs[-1]
    classes = adjoint_pair_classes(alg)
    assert (0 in alg.system.highest_root_marks) is with_self
    assert (2 in classes) is with_self
    if with_self:
        assert classes[2] == theta


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


@pytest.mark.parametrize("marks", [(1, 0, 0), (1,), (), (-3, 0), (1, -1)])
def test_weyl_dimension_rejects_bad_marks(marks):
    # one nonnegative integer mark per vertex, as GroupDescriptor asks
    with pytest.raises(ValueError):
        weyl_dim(SimpleType("A", 2), marks)


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


def test_diagram_record_matches_root_system():
    # the record's Cartan matrix is the one of the ε-coordinate simple
    # roots, and its closed-form highest-root marks (A-D) are those of the
    # highest generated root, for every type of rank 1-32
    for rank in range(1, 33):
        for st_ in _candidate_types(rank):
            rec, sys = diagram(st_), build_root_system(st_)
            gram, _ = cleared_gram(st_)
            assert rec.cartan == sys.cartan == tuple(
                tuple(2 * g // row[i] for g in row)
                for i, row in enumerate(gram)), st_
            assert rec.highest_root_marks == sys.coroot_marks(
                sys.positive_coeffs[-1]), st_
            assert rec.parent[0] == -1 and all(
                p < i and p in rec.neighbours[i]
                for i, p in enumerate(rec.parent[1:], start=1)), st_


def test_orbit_sizes():
    a1 = build_root_system(SimpleType("A", 1))
    assert weyl_orbit((1,), a1) == frozenset({(1,), (-1,)})
    a2 = build_root_system(SimpleType("A", 2))
    assert len(weyl_orbit((1, 1), a2)) == 6  # highest-root orbit
    b3 = build_root_system(SimpleType("B", 3))
    assert len(weyl_orbit((1, 0, 0), b3)) == 6  # ±ε_i


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
            continue  # a generic orbit would take too long
        sys = build_root_system(st_)
        marks = tuple(rng.randint(0, 1) for _ in range(st_.rank))
        orbit = weyl_orbit(marks, sys)
        assert weyl_group_order(st_) % len(orbit) == 0
    # large types: fundamental-weight orbits stay small
    e8 = build_root_system(SimpleType("E", 8))
    assert len(weyl_orbit((1, 0, 0, 0, 0, 0, 0, 0), e8)) == 240
    e7 = build_root_system(SimpleType("E", 7))
    assert len(weyl_orbit((1, 0, 0, 0, 0, 0, 0), e7)) == 56
