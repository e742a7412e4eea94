"""Tests of the benchmark's own reference mathematics, span arithmetic and
host-speed scaling.

None of these import secant: the closed forms are checked by brute-force
enumeration on tiny cases, the tracer on synthetic spans and the meter on a
synthetic probe and clock.
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import hostspeed  # noqa: E402
import indep  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402


def _vectors(q, d):
    return itertools.product(range(q), repeat=d)


def test_matrix_rank_counts_match_enumeration():
    for q, m, n in ((2, 2, 3), (3, 2, 2), (2, 3, 3), (3, 2, 3)):
        counts: dict = {}
        for v in _vectors(q, m * n):
            r = indep.rank_mod_p([list(v[i * n:(i + 1) * n]) for i in range(m)], q)
            counts[r] = counts.get(r, 0) + 1
        assert counts == indep.matrix_layer_counts(q, m, n), (q, m, n)


def test_split_quadric_counts_match_enumeration():
    for q, n in ((3, 4), (3, 6), (5, 4)):
        iso = [v for v in _vectors(q, n)
               if any(v) and indep.split_form_value(v, q) == 0]
        assert len(iso) == indep.split_quadric_isotropic(q, n)
        if n == 4:
            # every other nonzero vector is a sum of two isotropic ones
            sums = {tuple((a + b) % q for a, b in zip(u, w))
                    for u in iso for w in iso}
            rest = {v for v in _vectors(q, n)
                    if any(v) and indep.split_form_value(v, q) != 0}
            assert rest <= sums
            assert indep.quadric_layer_counts(q, n) == {
                0: 1, 1: len(iso), 2: len(rest)}


def test_gaussian_binomial_counts_subspaces():
    def independent_tuples(n, k):
        vecs = list(range(1, 2 ** n))
        count = 0
        for tup in itertools.permutations(vecs, k):
            span = {0}
            ok = True
            for v in tup:
                if v in span:
                    ok = False
                    break
                span |= {s ^ v for s in span}
            count += ok
        return count

    gl = {2: 6, 3: 168}  # |GL_k(F_2)|
    assert independent_tuples(4, 2) // gl[2] == indep.gaussian_binomial(4, 2, 2) == 35
    assert independent_tuples(6, 3) // gl[3] == indep.gaussian_binomial(6, 3, 2) == 1395


def test_rank_helpers():
    assert indep.rank_mod_p([[1, 2], [2, 4]], 7) == 1
    assert indep.rank_mod_p([[1, 2], [3, 4]], 2) == 1
    assert indep.frac_rank([[1, 2], [3, 4]]) == 2
    assert indep.clear_denominators([[Fraction(1, 2), 3]]) == [[1, 6]]
    assert indep.digits(5, 3, 3) == [2, 1, 0]
    assert indep.bit_length(Fraction(-8, 3)) == 4


def _span(name, phase, parent, start, end, extra=None):
    return (name, phase, parent, start, end, extra)


def test_self_time_of_nested_spans():
    spans = [
        _span("a.root", "cold", -1, 0.0, 10.0),
        _span("b.x", "cold", 0, 1.0, 4.0),
        _span("b.y", "cold", 0, 3.0, 6.0),   # overlaps b.x: union [1, 6]
        _span("c.z", "cold", 1, 2.0, 3.0),   # grandchild of the root
        _span("a.root", "cold", -1, 20.0, 21.0),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]


def test_outermost_skips_recursion():
    spans = [
        _span("m.f", "cold", -1, 0.0, 4.0),
        _span("m.g", "cold", 0, 1.0, 3.0),
        _span("m.f", "cold", 1, 1.5, 2.5),
    ]
    assert [tracer.outermost(spans, i) for i in range(3)] == [True, True, False]
    metrics = layers.compute(spans)
    # phase "cold" metrics only read the cold pass; m.* is no traced layer
    assert metrics["rootsys.build_root_system.s"] == (0, "s")


def test_wrapped_calls_record_parents():
    tr = tracer.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tr._wrap("linalg.leaf", leaf)

    def outer(x):
        return wrapped_leaf(x) + wrapped_leaf(x)

    wrapped_outer = tr._wrap("ranks.outer", outer)
    tr.active = True
    tr.phase = "warm1"
    assert wrapped_outer(1) == 4
    tr.active = False
    assert wrapped_outer(1) == 4  # inactive: no span
    spans = tr.spans()
    assert [(s[0], s[2]) for s in spans] == [
        ("ranks.outer", -1), ("linalg.leaf", 0), ("linalg.leaf", 0)]
    selfs = tracer.self_times(spans)
    assert abs(selfs[0] + selfs[1] + selfs[2] - (spans[0][4] - spans[0][3])) < 1e-12
    metrics = layers.compute(spans)
    assert metrics["ranks.self_s"][0] == selfs[0]
    assert metrics["linalg.self_s"][0] == selfs[1] + selfs[2]


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert layers._percentile(values, 50) == 50.0
    assert layers._percentile(values, 90) == 90.0
    assert layers._percentile([3.0], 90) == 3.0


def test_meter_subtracts_and_scales_by_nearby_probes():
    meter = hostspeed.Meter(kinds=(), every=1.0)
    for start, duration, slowness in ((0.0, 0.5, 2.0), (2.0, 0.25, 4.0),
                                      (10.0, 0.125, 8.0)):
        meter.record(start, duration, slowness)
    # [1.5, 3]: the probe at 2 ran inside it; probes at 0.5..4 are near
    raw, scaled = meter.times(1.5, 3.0)
    assert raw == 1.5 - 0.25
    assert scaled == raw / 4.0
    # [0.2, 1.9]: no probe inside; the probes at 0 and 2 are near
    raw, scaled = meter.times(0.2, 1.9)
    assert raw == 1.7 and scaled == raw * (1 / 2.0 + 1 / 4.0) / 2
    # [5, 6]: no probe within a second: the next one
    assert meter.times(5.0, 6.0) == (1.0, 1.0 / 8.0)


def test_meter_probe_records_mean_slowness():
    ticks = iter([0.0, 0.0, 3.0, 3.0, 4.0, 4.0])
    meter = hostspeed.Meter(kinds=(), clock=lambda: next(ticks))
    meter.loops = [(lambda: None, 1.5), (lambda: None, 0.5)]
    meter.probe()
    assert (meter.starts, meter.durations, meter.slowness) == (
        [0.0], [4.0], [(3.0 / 1.5 + 1.0 / 0.5) / 2])


def test_wedge3_f2_planes_are_the_3_subspaces():
    planes = indep.wedge3_f2_planes()
    assert len(planes) == indep.gaussian_binomial(6, 3, 2) == 1395
    # e0^e1^e2 is the first lexicographic triple; e3^e4^e5 the last
    assert indep.wedge3_f2_code([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                 [0, 0, 1, 0, 0, 0]]) == 1
    assert (1 | 1 << 19) not in planes   # e0^e1^e2 + e3^e4^e5
