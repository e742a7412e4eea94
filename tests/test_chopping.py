from __future__ import annotations

import json
import pathlib
import random

import pytest

from chopping_reference import (
    certificate_from_json,
    reference_chop,
    reference_find_wild_certificate,
    reference_subdiagram,
    removal_subsets,
)
import secant.chopping as chopping
import secant.rootsys as rootsys
from secant.chopping import (
    BASE_CASES,
    TABLE_RANK_CAP,
    Chopping,
    _candidate_types,
    _mark_boundaries,
    _marked_components,
    _subdiagram,
    certificate_to_json,
    chop,
    dense_position,
    find_wild_certificate,
    height2_tame,
    match_base_case,
    replay_certificate,
)
from secant.classifier import _canonical_single_types
from secant.rootsys import (
    CapExceeded,
    GroupDescriptor,
    SimpleType,
    canonicalize,
    format_descriptor,
    height,
    parse_descriptor,
)

DATA = pathlib.Path(__file__).parent / "data"


def fund(fam, n, k):
    marks = tuple(1 if i + 1 == k else 0 for i in range(n))
    return canonicalize(GroupDescriptor(((SimpleType(fam, n), marks),)))


def all_fundamentals(max_rank):
    for fam, lo in [("A", 1), ("B", 2), ("C", 2), ("D", 3)]:
        for n in range(lo, max_rank + 1):
            for k in range(1, n + 1):
                yield fam, n, k
    for fam, n in [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        if n <= max_rank:
            for k in range(1, n + 1):
                yield fam, n, k


def test_chop_examples():
    # symplectic: keep vertices 2..5 of C5 with the 4th fundamental
    assert chop(parse_descriptor("C5[0,0,0,1,0]"), {1}) == \
        parse_descriptor("C4[0,0,1,0]")
    # removing the first vertex of the largest exceptional type with the
    # 7th fundamental lands on the E7 adjoint
    assert chop(parse_descriptor("E8[0,0,0,0,0,0,1,0]"), {1}) == \
        parse_descriptor("E7[0,0,0,0,0,1,0]")
    # removing the unique marked vertex leaves the trivial module
    assert chop(parse_descriptor("A3[0,1,0]"), {2}) == GroupDescriptor(())


def test_chop_restricts_marks():
    g = parse_descriptor("A5[0,1,0,0,1]")
    # removing vertex 3 splits into A2 (mark at 2) and A2 (mark at 5->2)
    res = chop(g, {3})
    assert sorted(format_descriptor(GroupDescriptor((f,))) for f in res.factors) \
        == ["A2[0,1]", "A2[0,1]"]


def test_chop_errors():
    g = parse_descriptor("A3[1,0,0]")
    with pytest.raises(ValueError):
        chop(g, {0})
    with pytest.raises(ValueError):
        chop(g, {4})
    with pytest.raises(ValueError):
        chop(parse_descriptor("A2xA2[1,0|1,0]"), [{1}])  # one group for two factors
    with pytest.raises(ValueError):
        chop(parse_descriptor("A2xA2[1,0|1,0]"), {5: {1}})


def test_chop_product_per_factor():
    g = parse_descriptor("A3xC3[0,1,0|1,0,0]")
    res = chop(g, [{1}, set()])
    assert format_descriptor(res) == "A2xC3[0,1|1,0,0]"
    # dict form keyed by 0-based factor index agrees with the list form
    assert chop(g, {0: {1}}) == res
    # removing the end vertex of C3 leaves an A2 subdiagram (the double
    # bond sits at the removed end)
    res = chop(g, {1: {3}})
    assert format_descriptor(res) == "A2xA3[0,1|0,1,0]"


def test_chop_of_fundamental_is_fundamental_or_trivial():
    rng = random.Random(5)
    for fam, n, k in all_fundamentals(6):
        g = fund(fam, n, k)
        st, _ = g.factors[0]
        for _ in range(5):
            size = rng.randint(1, st.rank)
            subset = set(rng.sample(range(1, st.rank + 1), size))
            res = chop(g, subset)
            assert height(res) in (0, 1)
            if height(res) == 1:
                assert len(res.factors) == 1


def test_chop_functorial_on_vertex_sets():
    # removing S1 ∪ S2 at once equals removing S1 and then S2, where the
    # second removal is applied in the original vertex numbering; with
    # every vertex marked, the marked components are all components
    rng = random.Random(11)
    for st in [SimpleType("A", 7), SimpleType("D", 7), SimpleType("E", 8)]:
        verts = list(range(1, st.rank + 1))
        ones = (1,) * st.rank
        for _ in range(20):
            s1 = set(rng.sample(verts, rng.randint(1, 3)))
            s2 = set(rng.sample(verts, rng.randint(1, 3))) - s1
            comps_once = _marked_components(st, ones, s1 | s2)
            comps_twice = []
            for comp in _marked_components(st, ones, s1):
                outside = set(verts) - set(comp)
                comps_twice.extend(_marked_components(st, ones, outside | s2))
            assert sorted(comps_once) == sorted(comps_twice)


def test_chop_matches_all_components_reference_on_fundamentals():
    # every fundamental of every type of rank <= 8 (the low-rank aliases
    # B2 and D3 included), under every removal subset
    checked = 0
    for fam, n, k in all_fundamentals(8):
        marks = tuple(int(i + 1 == k) for i in range(n))
        g = GroupDescriptor(((SimpleType(fam, n), marks),))
        for removed in removal_subsets(n):
            assert chop(g, removed) == reference_chop(g, removed), (g, removed)
            checked += 1
    assert checked == 17730  # sum over the types of rank * 2^rank


def test_chop_matches_all_components_reference_seeded():
    # multi-mark single factors and two-factor products, with seeded
    # removals in every accepted form
    rng = random.Random(2026)
    types = [SimpleType(fam, n) for fam, n, k in all_fundamentals(9) if k == 1]
    for case in range(1500):
        factors = []
        for _ in range(1 + case % 2):
            st = rng.choice(types)
            factors.append((st, tuple(rng.choice((0, 0, 0, 1, 2))
                                      for _ in range(st.rank))))
        g = GroupDescriptor(tuple(factors))
        removed = [{v for v in range(1, st.rank + 1) if rng.random() < 0.3}
                   for st, _ in factors]
        if len(factors) == 1 and case % 4 == 0:
            removed = sorted(removed[0])
        elif case % 4 == 1:
            removed = {fi: vs for fi, vs in enumerate(removed) if vs}
        assert chop(g, removed) == reference_chop(g, removed), (g, removed)


def _fundamentals(max_rank):
    for st in _canonical_single_types(max_rank):
        for pos in range(st.rank):
            marks = tuple(int(t == pos) for t in range(st.rank))
            yield canonicalize(GroupDescriptor(((st, marks),)))


def _certificate_document():
    rows = {}
    for g in _fundamentals(8):
        cert = find_wild_certificate(g)
        rows[format_descriptor(g)] = (None if cert is None
                                      else certificate_to_json(cert))
    return {"max_rank": 8, "certificates": rows}


def test_certificates_match_rank8_golden():
    # certificate_to_json of all 161 fundamentals of rank <= 8 (null for
    # the tame ones), byte for byte
    text = json.dumps(_certificate_document(), indent=1, sort_keys=True) + "\n"
    assert len(json.loads(text)["certificates"]) == 161
    assert text == (DATA / "certificates_rank8.json").read_text()


def test_certificates_match_subset_scan_reference():
    # the boundary-first search finds the certificate that the scan of
    # every removal subset finds, for all 329 fundamentals of rank <= 12
    checked = 0
    for g in _fundamentals(12):
        got, want = find_wild_certificate(g), reference_find_wild_certificate(g)
        assert (got is None) == (want is None), g
        if got is not None:
            assert certificate_to_json(got) == certificate_to_json(want), g
        checked += 1
    assert checked == 329


def test_chop_of_a_chop_is_a_first_chop():
    # the lemma behind the one-pass search: chopping a first-step result at
    # any of its own boundaries lands on a first-step result of the root,
    # for every fundamental of rank <= 12
    second = 0
    for g in _fundamentals(12):
        ((st, marks),) = g.factors
        first = {chopping._chop(g, (b,))
                 for b in _mark_boundaries(st, marks.index(1) + 1)}
        for r in first:
            ((rst, rmarks),) = r.factors
            for b in _mark_boundaries(rst, rmarks.index(1) + 1):
                assert chopping._chop(r, (b,)) in first, (g, r, b)
                second += 1
    assert second == 36710


def test_mark_boundaries_are_first_removal_subsets():
    # in the size-then-lex scan, the first subset that leaves each marked
    # component is that component's boundary, and the components come in
    # the order of their boundaries
    for st in _canonical_single_types(8):
        for pos in range(1, st.rank + 1):
            marks = tuple(int(t == pos) for t in range(1, st.rank + 1))
            first = {}
            for subset in removal_subsets(st.rank):
                if subset and pos not in subset:
                    (comp,) = _marked_components(st, marks, subset)
                    first.setdefault(comp, subset)
            assert list(_mark_boundaries(st, pos)) == list(first.values()), (st, pos)
            if st.family == "A":
                # intervals [i, j] with i <= pos <= j, the whole one left out
                n = st.rank
                assert len(first) == pos * (n - pos + 1) - 1


def _connected_subsets(st):
    """Every connected vertex set of `st`, as sorted 1-based tuples."""
    nbrs = rootsys.diagram(st).neighbours
    found = {frozenset([v]) for v in range(st.rank)}
    layer = set(found)
    while layer:
        layer = {s | {w} for s in layer for v in s for w in nbrs[v]} - found
        found |= layer
    return sorted(tuple(sorted(v + 1 for v in s)) for s in found)


def test_subdiagram_matches_reference_search():
    # the parent-tree search recognises the same type with the same
    # bijections as the all-vertex backtracking, for every connected
    # subdiagram of every type of rank <= 12
    checked = 0
    for rank in range(1, 13):
        for st in _candidate_types(rank):
            for comp in _connected_subsets(st):
                cand, sigmas = _subdiagram(st, comp)
                assert len(set(sigmas)) == len(sigmas), (st, comp)
                assert (cand, set(sigmas)) == reference_subdiagram(st, comp), (
                    st, comp)
                checked += 1
    # a chain of n vertices has n(n + 1)/2 connected sets: 364 over A1-A12
    # and 363 over each of B2-B12 and C2-C12; D, E, F and G have 521
    assert len(_connected_subsets(SimpleType("A", 12))) == 78
    assert checked == 364 + 2 * 363 + 521


def test_certificate_search_builds_no_roots():
    # chopping reads the diagram record only: the search on every
    # fundamental of A-D of ranks 9-12, from empty diagram caches, builds
    # no root system
    for cache in (rootsys.build_root_system, rootsys.diagram,
                  chopping._subdiagram, chopping._mark_boundaries):
        cache.cache_clear()
    wild = 0
    for fam in "ABCD":
        for rank in range(9, 13):
            for pos in range(1, rank + 1):
                wild += find_wild_certificate(fund(fam, rank, pos)) is not None
    assert rootsys.build_root_system.cache_info().currsize == 0
    assert rootsys.diagram.cache_info().currsize > 0
    assert wild > 0


def test_tame_search_chops_polynomially(monkeypatch):
    # the tame second fundamental of A20 runs the whole search and fails:
    # one chop per boundary of A_n at vertex 2, which number 2n - 3, where a
    # scan of every removal subset would chop 2^20 - 1 times
    calls = 0
    real_chop = chopping._chop

    def counting_chop(g, removed):
        nonlocal calls
        calls += 1
        return real_chop(g, removed)

    monkeypatch.setattr(chopping, "_chop", counting_chop)
    g = parse_descriptor("A20[0,1%s]" % (",0" * 18))
    assert find_wild_certificate(g) is None
    assert calls == 2 * 20 - 3


@pytest.mark.parametrize("family,vertex", [
    ("A", 17), ("B", 2), ("C", 3), ("D", 2)])
def test_rank_cap_comes_before_the_base_cases(family, vertex):
    # B and D at vertex 2 are adjoint modules, which the base-case rules
    # would match below the cap
    with pytest.raises(CapExceeded):
        find_wild_certificate(fund(family, TABLE_RANK_CAP + 1, vertex))


def test_dense_position():
    assert dense_position("A", 3, 1) and dense_position("A", 3, 3)
    assert not dense_position("A", 3, 2)
    assert dense_position("C", 4, 1) and not dense_position("C", 4, 2)
    assert not dense_position("B", 3, 1)
    assert not dense_position("D", 4, 1)
    assert dense_position("A", 1, 1)


def test_height2_tame_rule():
    assert height2_tame(parse_descriptor("A3[2,0,0]"))
    assert height2_tame(parse_descriptor("A3[1,0,1]"))
    assert height2_tame(parse_descriptor("A2xC3[1,0|1,0,0]"))
    assert not height2_tame(parse_descriptor("A3[1,1,0]"))
    assert not height2_tame(parse_descriptor("B3[2,0,0]"))


@pytest.mark.parametrize("text", ["A3[1,0,0]", "A3[1,1,1]", "C3[3,0,0]"])
def test_height2_tame_rejects_other_heights(text):
    with pytest.raises(ValueError, match="height-2 rule"):
        height2_tame(parse_descriptor(text))


BASE_CASE_PINS = [
    ("A", 5, 3, "wedge3-sl6"),
    ("C", 3, 3, "wedge3-sp-family"),
    ("C", 6, 3, "wedge3-sp-family"),
    ("D", 6, 5, "halfspin-d6"),
    ("D", 6, 6, "halfspin-d6"),
    ("B", 5, 5, "spin-b5"),
    ("B", 4, 2, "adjoint-b"),
    ("D", 7, 2, "adjoint-d"),
    ("E", 6, 6, "adjoint-e6"),
    ("E", 7, 6, "adjoint-e7"),
    ("E", 8, 1, "adjoint-e8"),
    ("F", 4, 4, "adjoint-f4"),
    ("G", 2, 2, "adjoint-g2"),
    ("F", 4, 2, "f4-second-fundamental"),
    ("E", 7, 1, "e7-56dim"),
]


@pytest.mark.parametrize("fam,n,k,case_id", BASE_CASE_PINS)
def test_base_case_matches(fam, n, k, case_id):
    g = fund(fam, n, k)
    bc = match_base_case(g)
    assert bc is not None and bc.id == case_id
    cert = find_wild_certificate(g)
    assert cert is not None and cert.base_case == case_id and cert.chain == ()
    assert replay_certificate(cert)


def test_base_case_ids_unique():
    ids = [bc.id for bc in BASE_CASES]
    assert len(ids) == len(set(ids))


def test_no_base_case_on_tame_fundamentals():
    for desc in ["A4[0,1,0,0]", "C4[0,1,0,0]", "D5[0,0,0,0,1]", "B4[0,0,0,1]",
                 "E6[1,0,0,0,0,0]", "F4[1,0,0,0]", "G2[1,0]"]:
        assert match_base_case(parse_descriptor(desc)) is None


def test_certificate_search_spec_examples():
    # a base case certifies itself with an empty chain
    cert = find_wild_certificate(parse_descriptor("A5[0,0,1,0,0]"))
    assert cert is not None and cert.chain == () and cert.base_case == "wedge3-sl6"
    # reduction into the symplectic 3-tensor family
    cert = find_wild_certificate(parse_descriptor("C7[0,0,0,0,1,0,0]"))
    assert cert is not None and len(cert.chain) == 1
    assert cert.base_case == "wedge3-sp-family"
    assert format_descriptor(cert.chain[0].result) == "C5[0,0,1,0,0]"
    # tame: no certificate
    assert find_wild_certificate(parse_descriptor("A4[0,1,0,0]")) is None


def test_certificate_rule_cases():
    cert = find_wild_certificate(parse_descriptor("A1[3]"))
    assert cert is not None and cert.base_case == "height3" and cert.chain == ()
    cert = find_wild_certificate(parse_descriptor("B3[2,0,0]"))
    assert cert is not None and cert.base_case == "height2-dense-failure"
    assert find_wild_certificate(parse_descriptor("A2[1,1]")) is None
    assert find_wild_certificate(parse_descriptor("C3[2,0,0]")) is None


def test_wild_iff_certificate_fundamentals_to_rank_cap():
    # double-entry bookkeeping: the tame table and the certificate search
    # agree on every fundamental of every canonical type up to the cap
    from secant.classifier import classify
    checked = 0
    for g in _fundamentals(TABLE_RANK_CAP):
        cert = find_wild_certificate(g)
        verdict = classify(g)
        assert (cert is not None) == (verdict.status == "wild"), g
        if cert is not None:
            assert replay_certificate(cert), g
            assert len(cert.chain) <= 1, g
        checked += 1
    assert checked == 2129


def test_certificate_json_roundtrip():
    cert = find_wild_certificate(parse_descriptor("C7[0,0,0,0,1,0,0]"))
    doc = certificate_to_json(cert)
    text = json.dumps(certificate_to_json(cert))
    assert json.loads(text) == doc
    back = certificate_from_json(doc)
    assert back == cert
    assert replay_certificate(back)


def test_certificate_tampering_detected():
    cert = find_wild_certificate(parse_descriptor("C7[0,0,0,0,1,0,0]"))
    doc = certificate_to_json(cert)
    bad = dict(doc)
    bad["chain"] = [dict(doc["chain"][0], result="C4[0,0,1,0]")]
    assert not replay_certificate(certificate_from_json(bad))
    bad2 = dict(doc)
    bad2["base_case"] = "halfspin-d6"
    assert not replay_certificate(certificate_from_json(bad2))
    bad3 = dict(doc)
    bad3["root"] = "C7[0,0,0,1,0,0,0]"
    assert not replay_certificate(certificate_from_json(bad3))
    # removals that `chop` rejects: a vertex out of range, and two vertex
    # groups for a single factor
    for removed in ([[99]], [[1], [2]]):
        bad4 = dict(doc)
        bad4["chain"] = [dict(doc["chain"][0], removed=removed)]
        assert not replay_certificate(certificate_from_json(bad4))


def test_chopping_step_replay():
    g = parse_descriptor("E8[0,0,0,0,0,0,1,0]")
    step = Chopping(parent=g, removed=((1,),),
                    result=parse_descriptor("E7[0,0,0,0,0,1,0]"))
    assert chop(step.parent, step.removed) == step.result
    bad = Chopping(parent=g, removed=((1,),),
                   result=parse_descriptor("E7[1,0,0,0,0,0,0]"))
    assert chop(bad.parent, bad.removed) != bad.result
