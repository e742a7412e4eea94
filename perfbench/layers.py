"""Per-layer metrics computed from the spans of a traced run.

Each metric names one statistic of one span name over one phase of the run:
``cold`` is the first pass in the process, ``warm1`` the second.  A metric
aimed at lazy set-up (the README's cold column) reads the cold pass; every
other metric reads the first warm pass, so a count repeats exactly however
many passes a run makes.
"""

from __future__ import annotations

import resource

import indep
import tracer

# (metric, span name, statistic, phase)
SPECS = [
    ("rootsys.build_root_system.s", "rootsys.build_root_system", "s", "cold"),
    ("rootsys.weyl_orbit.calls", "rootsys.weyl_orbit", "calls", "warm1"),
    ("rootsys.weyl_orbit.s", "rootsys.weyl_orbit", "s", "warm1"),
    ("rootsys.canonicalize.s", "rootsys.canonicalize", "s", "warm1"),
    ("chopping.find_wild_certificate.calls", "chopping.find_wild_certificate",
     "calls", "warm1"),
    ("chopping.find_wild_certificate.s", "chopping.find_wild_certificate",
     "s", "warm1"),
    ("chopping.replay_certificate.s", "chopping.replay_certificate", "s",
     "warm1"),
    ("classifier.classify.s", "classifier.classify", "s", "warm1"),
    ("classifier.generate_table.s", "classifier.generate_table", "s", "warm1"),
    ("chevalley.build_chevalley.s", "chevalley.build_chevalley", "s", "cold"),
    ("chevalley.bracket.calls", "chevalley.ChevalleyAlgebra.bracket", "calls",
     "warm1"),
    ("chevalley.orbit_dim.s", "chevalley.orbit_dim", "s", "warm1"),
    ("chevalley.skew_im_stats.s", "chevalley.skew_im_stats", "s", "warm1"),
    ("chevalley.sample_isotropic_plane.s", "chevalley.sample_isotropic_plane",
     "s", "warm1"),
    ("chevalley.isotropic_pair_case.p50_ms", "chevalley.isotropic_pair_case",
     "p50_ms", "warm1"),
    ("chevalley.isotropic_pair_case.p90_ms", "chevalley.isotropic_pair_case",
     "p90_ms", "warm1"),
    ("chevalley.isotropic_pair_case.s", "chevalley.isotropic_pair_case", "s",
     "warm1"),
    ("jordan.jordan_rank.p50_ms", "jordan.jordan_rank", "p50_ms", "warm1"),
    ("jordan.jordan_rank.s", "jordan.jordan_rank", "s", "warm1"),
    ("jordan.rank2_split.p50_ms", "jordan.rank2_split", "p50_ms", "warm1"),
    ("jordan.rank2_split.p90_ms", "jordan.rank2_split", "p90_ms", "warm1"),
    ("jordan.rank2_split.bits_max", "jordan.rank2_split", "bits_max", "warm1"),
    ("jordan.rank3_split.p50_ms", "jordan.rank3_split", "p50_ms", "warm1"),
    ("jordan.rank3_split.p90_ms", "jordan.rank3_split", "p90_ms", "warm1"),
    ("jordan.oct_mul.calls", "jordan.oct_mul", "calls", "warm1"),
    ("jordan.f4_pi2_witness_search.s", "jordan.f4_pi2_witness_search", "s",
     "warm1"),
    ("ranks.coform_rank_decompose.p50_ms", "ranks.coform_rank_decompose",
     "p50_ms", "warm1"),
    ("ranks.coform_rank_decompose.p90_ms", "ranks.coform_rank_decompose",
     "p90_ms", "warm1"),
    ("ranks.coform_rank_decompose.bits_max", "ranks.coform_rank_decompose",
     "bits_max", "warm1"),
    ("ranks.wedge3_c6_rank.p50_ms", "ranks.wedge3_c6_rank", "p50_ms", "warm1"),
    ("ranks.rank_of_tensor.s", "ranks.rank_of_tensor", "s", "warm1"),
    ("ranks.tensor_from_json.s", "ranks.tensor_from_json", "s", "warm1"),
    ("linalg.row_reduce.calls", "linalg.row_reduce", "calls", "warm1"),
    ("linalg.row_reduce.s", "linalg.row_reduce", "s", "warm1"),
    ("linalg.int_rank.s", "linalg.int_rank", "s", "warm1"),
    ("linalg.modp_rank.calls", "linalg.modp_rank", "calls", "warm1"),
    ("linalg.modp_rank.s", "linalg.modp_rank", "s", "warm1"),
    ("oracle.enumerate_cone_points.s", "oracle.enumerate_cone_points", "s",
     "cold"),
    ("oracle.bfs_rank_table.first_s", "oracle.bfs_rank_table", "first_s",
     "cold"),
    ("oracle.bfs_rank_table.minflt", "oracle.bfs_rank_table", "minflt", "cold"),
    ("oracle.bfs_rank_table.s", "oracle.bfs_rank_table", "s", "warm1"),
    ("oracle.bfs_rank_table.vectors_per_s", "oracle.bfs_rank_table",
     "vectors_per_s", "warm1"),
    ("oracle.RankTable.save.s", "oracle.RankTable.save", "s", "warm1"),
    ("oracle.RankTable.load.s", "oracle.RankTable.load", "s", "warm1"),
    ("cli.main.self_s", "cli", "layer_self_s", "warm1"),
]
SPECS += [("cli.%s.s" % sub, "cli.main", "sub:" + sub, "warm1")
          for sub in ("classify", "rank", "chop-tree", "witness", "orbit-dim",
                      "oracle", "table")]
SPECS += [("%s.%s" % (layer, stat), layer, "layer_self_s", phase)
          for layer in tracer.LAYERS if layer != "cli"
          for stat, phase in (("cold_self_s", "cold"), ("self_s", "warm1"))]

UNITS = {"s": "s", "calls": "count", "p50_ms": "ms", "p90_ms": "ms",
         "bits_max": "bits", "first_s": "s", "minflt": "count",
         "vectors_per_s": "1/s", "layer_self_s": "s"}


def unit_of(stat):
    return "s" if stat.startswith("sub:") else UNITS[stat]


def probes():
    """Per-span-name probes that store an extra value with each span."""
    def bits_of_split(sp):
        return max(indep.bit_length(v)
                   for part in (sp.plus, sp.minus) for v in part.coords())

    def bits_of_coform(dec):
        return max((indep.bit_length(v) for x, y in dec.pairs
                    for v in list(x) + list(y)), default=0)

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    return {
        "jordan.rank2_split": tracer.output_probe(bits_of_split),
        "ranks.coform_rank_decompose": tracer.output_probe(bits_of_coform),
        # (minor page faults during the call, vectors in the table)
        "oracle.bfs_rank_table": (
            lambda args, kwargs: minflt(),
            lambda state, args, kwargs, out:
                (minflt() - state, int(out.ranks.size))),
        "cli.main": tracer.argv_probe(),
    }


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    idx = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return ordered[int(idx)]


def compute(spans):
    """All per-layer metrics as {name: (value, unit)}."""
    selfs = tracer.self_times(spans)
    by_name: dict = {}
    for idx, span in enumerate(spans):
        by_name.setdefault((span[0], span[1]), []).append(idx)
    first: dict = {}
    layer_self: dict = {}
    for idx, span in enumerate(spans):
        first.setdefault(span[0], idx)
        key = (span[0].split(".")[0], span[1])
        layer_self[key] = layer_self.get(key, 0.0) + selfs[idx]
    out = {}
    for metric, name, stat, phase in SPECS:
        idxs = by_name.get((name, phase), [])
        durs = [spans[i][4] - spans[i][3] for i in idxs]
        if stat == "s":
            val = sum(spans[i][4] - spans[i][3] for i in idxs
                      if tracer.outermost(spans, i))
        elif stat == "calls":
            val = len(idxs)
        elif stat in ("p50_ms", "p90_ms"):
            val = _percentile(durs, int(stat[1:3])) * 1e3 if durs else 0.0
        elif stat == "bits_max":
            val = max((spans[i][5] for i in idxs), default=0)
        elif stat in ("first_s", "minflt"):
            i = first.get(name)
            if i is None:
                val = 0.0 if stat == "first_s" else 0
            elif stat == "first_s":
                val = spans[i][4] - spans[i][3]
            else:
                val = spans[i][5][0]
        elif stat == "vectors_per_s":
            vectors = sum(spans[i][5][1] for i in idxs)
            val = vectors / sum(durs) if durs else 0.0
        elif stat == "layer_self_s":
            val = layer_self.get((name, phase), 0.0)
        else:  # "sub:<subcommand>": cli.main spans of one subcommand
            sub = stat[4:]
            val = sum(d for i, d in zip(idxs, durs) if spans[i][5] == sub)
        out[metric] = (val, unit_of(stat))
    return out
