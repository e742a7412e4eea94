"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Starts SETUP_PROBES fresh
interpreters that only build the workload's inputs (and, for a workload with
a short cold pass, make that pass once), then one interpreter that runs the
workload (``worker.py``), and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s, cold_s,
warm_s, peak_rss_mib; times scaled to the reference host speed, see
``hostspeed.py``); with ``--trace 1`` they are the per-layer ones from a
traced run.  The raw result of each run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lie-classify", "exact-rank", "oracle")

#: Fresh interpreters per run that only set up; with the workload process's
#: own set-up they give the median setup_s.
SETUP_PROBES = 3
#: Whole-run limit; a run that would pass it is stopped and fails.
DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    env.pop("SECANT_CACHE_DIR", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _worker(args, mode, workdir, deadline, spans=None):
    """Run worker.py once and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--mode", mode, "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                          stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker (%s) exited %d" % (mode, proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "secant", "__init__.py")):
        print("error: no secant sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    tag = "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    workdir = os.path.join(OUT, "tmp-" + tag)
    os.makedirs(OUT, exist_ok=True)
    try:
        probes = [_worker(args, "setup", workdir, deadline)
                  for _ in range(SETUP_PROBES)]
        spans = os.path.join(OUT, "spans-%s.jsonl.gz" % tag) \
            if args.trace else None
        res = _worker(args, "run", workdir, deadline, spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [p["setup_scaled_s"] for p in probes] + [res["setup_scaled_s"]]
    colds = [p["cold_scaled_s"] for p in probes if "cold_s" in p] \
        + [res["passes_scaled_s"][0]]
    res["setup_probes_s"] = setups
    res["cold_samples_s"] = colds
    res["attempted"] += sum(p["attempted"] for p in probes)
    res["failed"] += sum(p["failed"] for p in probes)
    res["failures"] += [f for p in probes for f in p["failures"]]
    passes = res["passes_scaled_s"]
    with open(os.path.join(OUT, "run-%s.json" % tag), "w") as fh:
        json.dump(res, fh, indent=1)
    for line in res["failures"]:
        print("failed: %s" % line, file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   sorted(res["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cold_s": {"value": statistics.median(colds), "unit": "s"},
            "warm_s": {"value": statistics.median(passes[1:]), "unit": "s"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
