from __future__ import annotations

import json
import pathlib

import pytest

from secant.chopping import (
    dense_position,
    find_wild_certificate,
    replay_certificate,
)
from secant.classifier import (
    _all_marks_up_to_height,
    _canonical_single_types,
    REASON_CERTIFICATE,
    REASON_H2_FAIL,
    REASON_H2_LIST,
    REASON_H3,
    REASON_TABLE,
    TABLE_RANK_CAP,
    classify,
    generate_table,
    max_typical_rank,
)
from secant.rootsys import (
    CapExceeded,
    GroupDescriptor,
    SimpleType,
    canonicalize,
    format_descriptor,
    parse_descriptor,
)

DATA = pathlib.Path(__file__).parent / "data"


def fund(fam, n, k):
    marks = tuple(1 if i + 1 == k else 0 for i in range(n))
    return canonicalize(GroupDescriptor(((SimpleType(fam, n), marks),)))


VERDICT_PINS = [
    ("A5[0,0,1,0,0]", "wild", REASON_CERTIFICATE),
    ("C4[0,1,0,0]", "tame", REASON_TABLE),
    ("D5[0,0,0,0,1]", "tame", REASON_TABLE),
    ("A1[3]", "wild", REASON_H3),
    ("A2xA3[1,0|1,0,0]", "tame", REASON_H2_LIST),
    ("F4[0,1,0,0]", "wild", REASON_CERTIFICATE),
    ("B3[2,0,0]", "wild", REASON_H2_FAIL),
    ("A3[1,0,1]", "tame", REASON_H2_LIST),
    ("A3[2,0,0]", "tame", REASON_H2_LIST),
    ("A2[1,1]", "tame", REASON_H2_LIST),
    ("C3[2,0,0]", "tame", REASON_H2_LIST),
    ("A1xA1[1|1]", "tame", REASON_H2_LIST),
    ("A1[2]", "tame", REASON_H2_LIST),
    ("B4[0,0,0,1]", "tame", REASON_TABLE),
    ("E6[1,0,0,0,0,0]", "tame", REASON_TABLE),
    ("E7[1,0,0,0,0,0,0]", "wild", REASON_CERTIFICATE),
    ("E8[1,0,0,0,0,0,0,0]", "wild", REASON_CERTIFICATE),
    ("G2[1,0]", "tame", REASON_TABLE),
    ("G2[0,1]", "wild", REASON_CERTIFICATE),
    ("A1xA1xA1[1|1|1]", "wild", REASON_H3),
]


@pytest.mark.parametrize("desc,status,reason", VERDICT_PINS)
def test_classify_pins(desc, status, reason):
    v = classify(parse_descriptor(desc))
    assert v.status == status
    assert v.reason == reason
    if status == "wild":
        assert v.certificate is not None
        assert replay_certificate(v.certificate)
    else:
        assert v.certificate is None
    assert v.citation


def test_classify_rejects_trivial():
    with pytest.raises(ValueError):
        classify(parse_descriptor("A3[0,0,0]"))


def test_classify_invariances():
    # factor order does not matter
    a = classify(parse_descriptor("A2xC3[1,0|1,0,0]"))
    b = classify(parse_descriptor("C3xA2[1,0,0|1,0]"))
    assert (a.status, a.reason) == (b.status, b.reason)
    # low-rank coincidences: B2=C2, D3=A3
    assert classify(parse_descriptor("B2[0,1]")).status == \
        classify(parse_descriptor("C2[1,0]")).status
    assert classify(parse_descriptor("D3[0,1,0]")).status == \
        classify(parse_descriptor("A3[1,0,0]")).status


def test_duality_symmetry():
    # the two ends of the A-series diagram play symmetric roles
    for n in range(2, 9):
        for k in range(1, n + 1):
            v1 = classify(fund("A", n, k))
            v2 = classify(fund("A", n, n + 1 - k))
            assert v1.status == v2.status, (n, k)


RANK_PINS = [
    # line in its span
    ("A3[1,0,0]", 1),
    # quadratic forms on F^5 / F^6: generic rank = matrix size
    ("A4[2,0,0,0]", 5),
    ("A5[2,0,0,0,0]", 6),
    # alternating forms: half the size, rounded down
    ("A5[0,1,0,0,0]", 3),
    ("A6[0,1,0,0,0,0]", 3),
    ("A7[0,1,0,0,0,0,0]", 4),
    # traceless matrices via the flag variety of lines+hyperplanes
    ("A3[1,0,1]", 4),
    # quadric hypersurfaces
    ("B3[1,0,0]", 2),
    ("D4[1,0,0,0]", 2),
    ("G2[1,0]", 2),
    ("B2[0,1]", 1),
    # spin varieties at small rank reduce to quadrics / the 10-dim case
    ("B3[0,0,1]", 2),
    ("D4[0,0,0,1]", 2),
    ("B4[0,0,0,1]", 2),
    ("D5[0,0,0,0,1]", 2),
    # symplectic grassmannian of isotropic planes
    ("C3[0,1,0]", 3),
    ("C4[0,1,0,0]", 4),
    # symplectic squares = quadratic forms again
    ("C3[2,0,0]", 6),
    # exceptional 16- and 26-dimensional tame modules
    ("E6[1,0,0,0,0,0]", 3),
    ("E6[0,0,0,0,1,0]", 3),
    ("F4[1,0,0,0]", 3),
    # products: min of the two projective dimensions, plus one
    ("A2xA3[1,0|1,0,0]", 3),
    ("A1xC4[1|1,0,0,0]", 2),
    ("C3xC4[1,0,0|1,0,0,0]", 6),
]


@pytest.mark.parametrize("desc,expected", RANK_PINS)
def test_max_typical_rank(desc, expected):
    profile = max_typical_rank(parse_descriptor(desc))
    assert profile.max_rank == expected
    assert profile.variety


def test_max_typical_rank_rejects_wild():
    with pytest.raises(ValueError):
        max_typical_rank(parse_descriptor("A5[0,0,1,0,0]"))
    with pytest.raises(ValueError):
        max_typical_rank(parse_descriptor("A1[3]"))


def test_generate_table_small():
    rows = generate_table(2)
    a_rows = [format_descriptor(g) for g, _ in rows
              if all(st.family == "A" for st, _ in g.factors)
              and len(g.factors) == 1]
    assert a_rows == ["A1[1]", "A1[2]", "A2[0,1]", "A2[0,2]",
                      "A2[1,0]", "A2[1,1]", "A2[2,0]"]


def test_generate_table_caps_max_rank():
    with pytest.raises(CapExceeded):
        generate_table(TABLE_RANK_CAP + 1)


def test_generate_table_deterministic_and_idempotent():
    r1 = generate_table(4)
    r2 = generate_table(4)
    assert r1 == r2
    descs = [format_descriptor(g) for g, _ in r1]
    assert descs == sorted(set(descs), key=lambda d: (d.count("x"), d))
    for g, verdict in r1:
        assert verdict.status == "tame"
        assert classify(g).status == "tame"


def test_generate_table_matches_fixture():
    fixture = json.loads((DATA / "tame_table_rank8.json").read_text())
    want = set(fixture["rows"])
    got = {format_descriptor(g) for g, _ in generate_table(fixture["max_rank"])}
    assert got == want


def test_table_products_are_dual_reduced():
    for g, _ in generate_table(4):
        for st, marks in g.factors:
            if len(g.factors) > 1 and st.family == "A" and st.rank > 1:
                assert marks[0] == 1 and marks[-1] == 0


def test_skipped_table_candidates_are_wild_rank8():
    # the table no longer classifies height-3 singles or products with a
    # non-dense fundamental; each of them classifies wild by the height
    # rules, with a certificate that replays
    skipped = []
    for st in _canonical_single_types(8):
        for marks in _all_marks_up_to_height(st.rank, 3):
            if sum(marks) == 3:
                skipped.append((GroupDescriptor(((st, marks),)), REASON_H3))
    singles = _canonical_single_types(8)
    for i, st1 in enumerate(singles):
        for st2 in singles[i:]:
            for p1 in range(1, st1.rank + 1):
                for p2 in range(1, st2.rank + 1):
                    if (dense_position(st1.family, st1.rank, p1)
                            and dense_position(st2.family, st2.rank, p2)):
                        continue
                    m1 = tuple(int(t == p1 - 1) for t in range(st1.rank))
                    m2 = tuple(int(t == p2 - 1) for t in range(st2.rank))
                    skipped.append((GroupDescriptor(((st1, m1), (st2, m2))),
                                    REASON_H2_FAIL))
    # 1583 height-3 marks, and 13443 products of two of the 161
    # fundamentals less the 260 products of two of the 22 dense ones
    assert len(skipped) == 1583 + 13443 - 260
    for g, reason in skipped:
        verdict = classify(g)
        assert (verdict.status, verdict.reason) == ("wild", reason), g
        assert replay_certificate(verdict.certificate), g


def test_double_entry_rank6():
    # the per-family tame table and the certificate search must agree
    for g, _ in generate_table(6):
        if len(g.factors) == 1 and sum(g.factors[0][1]) == 1:
            assert find_wild_certificate(g) is None, format_descriptor(g)
