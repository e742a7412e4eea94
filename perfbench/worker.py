"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
                                --t0 <time.monotonic() at spawn> --mode run|setup

Prints one JSON object as its last line.  ``--mode setup`` stops after the
inputs are built and reports ``setup_s``, after one cold pass when the
workload's cold pass is cheap enough to sample more than once
(``COLD_PROBES``); ``--mode run`` then makes a
cold pass over the workload's operations and warm passes until the cold and
warm passes together have taken ``--seconds``.  Every time is reported raw
and scaled to the reference host speed by the probes of ``hostspeed.Meter``,
which run on a timer from before secant is imported.  With ``--trace 1`` the
calls into secant are traced and the per-layer metrics are reported; the
spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import secant  # noqa: F401
    import secant.chevalley  # noqa: F401
    import secant.chopping  # noqa: F401
    import secant.classifier  # noqa: F401
    import secant.cli  # noqa: F401
    import secant.jordan  # noqa: F401
    import secant.linalg  # noqa: F401
    import secant.oracle  # noqa: F401
    import secant.ranks  # noqa: F401
    import secant.rootsys  # noqa: F401


def _same(out, ref):
    try:
        return bool(out == ref)
    except (TypeError, ValueError):  # e.g. objects holding numpy arrays
        return False


def run_pass(ops, tr, phase, failures, verified=None):
    """Time each operation, then check its output with tracing off.

    With a ``verified`` dict, an output equal to the same operation's output
    already verified in an earlier pass counts as checked, and newly
    verified outputs are kept there.  Returns the (kind, start, end) span of
    each operation and the failed count."""
    spans = []
    failed = 0
    for idx, (kind, run, check) in enumerate(ops):
        if tr is not None:
            tr.phase = phase
            tr.active = True
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        spans.append((kind, t0, time.perf_counter()))
        if tr is not None:
            tr.active = False
        if isinstance(out, Exception):
            failed += 1
            failures.append("%s raised %s: %s" % (kind, type(out).__name__, out))
            continue
        if verified is not None and idx in verified and _same(out, verified[idx]):
            continue
        try:
            bad = check(out)
        except Exception as exc:
            bad = "check raised %s: %s" % (type(exc).__name__, exc)
        if bad:
            failed += 1
            failures.append("%s: %s" % (kind, bad))
        elif verified is not None:
            verified[idx] = out
    return spans, failed


def pass_times(meter, spans):
    """(raw seconds, scaled seconds, raw seconds per kind) of one pass."""
    raw = scaled = 0.0
    kinds: dict = {}
    for kind, t0, t1 in spans:
        r, sc = meter.times(t0, t1)
        raw += r
        scaled += sc
        kinds[kind] = kinds.get(kind, 0.0) + r
    return raw, scaled, kinds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("run", "setup"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    meter = hostspeed.Meter(wl.PROBES)
    meter.start()
    _import_program()
    os.makedirs(args.workdir, exist_ok=True)
    wl = wl(args.seed, args.workdir, ROOT)
    ops = wl.setup()
    # set-up from spawn: the interpreter start, imports and inputs
    t_spawn = time.perf_counter() - (time.monotonic() - args.t0)
    setup = (t_spawn, time.perf_counter())
    result = {"probes": wl.PROBES}
    if args.mode == "setup":
        result.update(attempted=0, failed=0, failures=[])
        if wl.COLD_PROBES:
            gc.collect()
            cold, failed = run_pass(ops, None, "cold", result["failures"])
            result.update(attempted=len(ops), failed=failed)
        meter.stop()
        result["setup_s"], result["setup_scaled_s"] = meter.times(*setup)
        if wl.COLD_PROBES:
            raw, scaled, kinds = pass_times(meter, cold)
            result.update(cold_s=raw, cold_scaled_s=scaled, cold_kinds_s=kinds)
        print(json.dumps(result))
        return 0

    tr = None
    if args.trace:
        import layers
        import tracer
        tr = tracer.Tracer(layers.probes())
        tr.install()
        tr.active = False
    gc.collect()

    failures: list = []
    passes = []
    failed = 0
    verified = {} if wl.KEEP_VERIFIED else None
    while True:
        phase = "cold" if not passes else "warm%d" % len(passes)
        # the per-layer metrics read the cold and the first warm pass only
        spans, bad = run_pass(ops, tr if len(passes) < 2 else None, phase,
                              failures, verified)
        passes.append(spans)
        failed += bad
        if len(passes) == 2 and tr is not None:
            tr.uninstall()
        if len(passes) >= 2 and sum(p[-1][2] - p[0][1]
                                    for p in passes) >= args.seconds:
            break
    meter.stop()
    times = [pass_times(meter, p) for p in passes]
    result["setup_s"], result["setup_scaled_s"] = meter.times(*setup)
    result.update({
        "passes_s": [t[0] for t in times],
        "passes_scaled_s": [t[1] for t in times],
        "kinds_s": [t[2] for t in times[:2]],
        "probe_count": len(meter.durations),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "failures": failures[:20],
    })
    passes = result["passes_scaled_s"]
    if tr is not None:
        spans = tr.spans()
        result["layers"] = {k: list(v) for k, v in layers.compute(spans).items()}
        result["layers"]["trace.cold_s"] = [passes[0], "s"]
        result["layers"]["trace.warm_s"] = [passes[1], "s"]
        result["spans"] = len(spans)
        if args.spans:
            tr.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
