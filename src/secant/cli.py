"""Command-line interface.

One binary with seven subcommands:

  classify <desc>            tame/wild verdict with replayable certificate
  rank <shape> <file>        exact rank of a tensor read from JSON
  chop-tree <desc>           parabolic-reduction chain behind a wild verdict
  witness {e7,f4,sp6,sl6}    the hand-checkable wildness witnesses
  orbit-dim <type> ...       exact orbit dimensions in a Chevalley algebra
  oracle <family> --prime P  finite-field exhaustive rank table
  table --max-rank N         the tame classification table

Every subcommand accepts ``--json`` for versioned machine-readable output;
human and JSON output are rendered from the same report object.  Exit codes:
0 success, 1 domain error (bad descriptor, malformed input, violated
precondition), 2 resource cap exceeded.  Randomized subcommands require an
explicit ``--seed`` in JSON mode.  The environment variable
``SECANT_CACHE_DIR`` enables on-disk memoization of oracle tables (a
version-stamped JSON header with the sha256 of a raw rank array, both
written atomically; safe to delete).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .chevalley import (
    adjoint_pair_classes,
    build_chevalley,
    e7_wild_witness,
    grade_by_fundamental,
    orbit_dim,
)
from .chopping import (
    certificate_to_json,
    certificate_to_text,
    find_wild_certificate,
    replay_certificate,
)
from .classifier import classify, generate_table
from .jordan import f4_pi2_witness_search
from .linalg import exact_rationals
from .oracle import family_dim, rank_table
from .ranks import (
    SHAPES,
    rank_of_tensor,
    sp6_wedge3_witness,
    tensor_from_json,
    wedge3_c6_rank,
    wedge3_from_triples,
)
from .rootsys import (
    CapExceeded,
    SimpleType,
    format_descriptor,
    parse_descriptor,
)

SCHEMA_VERSION = "v1"


def _schema(sub: str) -> str:
    return "secant/%s/%s" % (sub, SCHEMA_VERSION)


def _emit_json(report: dict, out) -> None:
    out.write(json.dumps(report, indent=1, sort_keys=True))
    out.write("\n")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1 (domain error), keeping
    exit code 2 reserved for resource caps."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args, out) -> int:
    g = parse_descriptor(args.descriptor)
    verdict = classify(g)
    report = {
        "schema": _schema("classify"),
        "input": args.descriptor,
        "descriptor": format_descriptor(g),
        "status": verdict.status,
        "reason": verdict.reason,
        "citation": verdict.citation,
        "certificate": None,
        "certificate_replays": None,
    }
    if verdict.certificate is not None:
        report["certificate"] = certificate_to_json(verdict.certificate)
        report["certificate_replays"] = replay_certificate(verdict.certificate)
        if not report["certificate_replays"]:
            raise AssertionError("wild certificate failed to replay")
    if args.json:
        _emit_json(report, out)
    else:
        out.write("%s: %s\n" % (report["descriptor"], verdict.status))
        out.write("reason: %s\n" % verdict.reason)
        out.write("justification: %s\n" % verdict.citation)
        if verdict.certificate is not None:
            out.write(certificate_to_text(verdict.certificate))
            out.write("\ncertificate replays: %s\n"
                      % report["certificate_replays"])
    return 0


def _cmd_rank(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (args.file, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("%s is not valid JSON: %s" % (args.file, exc))

    tensor = tensor_from_json(doc)
    if tensor.shape != args.shape:
        raise ValueError("shape mismatch: file says %r, argument says %r"
                         % (tensor.shape, args.shape))
    rank, cert = rank_of_tensor(tensor)
    dims = list(tensor.dims)
    report = {
        "schema": _schema("rank"),
        "shape": args.shape,
        "file": args.file,
        "dims": dims,
        "rank": rank,
        "certificate": cert,
    }
    if args.json:
        _emit_json(report, out)
    else:
        out.write("shape %s, dims %s: rank %d\n"
                  % (args.shape, "x".join(str(d) for d in dims), rank))
        if cert:
            out.write("certificate: %s\n" % json.dumps(cert))
    return 0


def _cmd_chop_tree(args, out) -> int:
    g = parse_descriptor(args.descriptor)
    verdict = classify(g)
    cert = verdict.certificate
    if cert is None and not verdict.tame:
        cert = find_wild_certificate(g)
    report = {
        "schema": _schema("chop-tree"),
        "descriptor": format_descriptor(g),
        "status": verdict.status,
        "certificate": certificate_to_json(cert) if cert else None,
        "certificate_replays": replay_certificate(cert) if cert else None,
    }
    if args.json:
        _emit_json(report, out)
    elif cert is None:
        out.write("%s: %s — no reduction chain (only wild pairs carry "
                  "one)\n" % (report["descriptor"], verdict.status))
    else:
        out.write(certificate_to_text(cert))
        out.write("\nreplays: %s\n" % report["certificate_replays"])
    return 0


def _witness_e7(args) -> dict:
    rep = e7_wild_witness()
    alg = build_chevalley(SimpleType("E", 8))
    grading = grade_by_fundamental(alg, 1)
    body = rep.as_dict()
    body["grading_dims"] = {str(d): grading.dims[d]
                            for d in sorted(grading.dims)}
    return body


def _witness_f4(args) -> dict:
    seed = args.seed if args.seed is not None else 0
    res = f4_pi2_witness_search(prime=args.prime, seed=seed,
                                budget=args.budget)
    if not res.found:
        raise ValueError("witness search failed: %s" % res.fail_reason)
    return res.as_dict()


def _witness_sp6(args) -> dict:
    _, rep = sp6_wedge3_witness()
    body = rep.as_dict()
    body["form"] = [[str(v) for v in row] for row in rep.form]
    return body


def _witness_sl6(args) -> dict:
    reps = [
        ("decomposable", [(0, 1, 2, 1)]),
        ("two-block", [(0, 1, 2, 1), (3, 4, 5, 1)]),
        ("divisible", [(0, 1, 2, 1), (0, 4, 5, 1)]),
        ("three-plane witness",
         [(0, 1, 3, 1), (0, 2, 4, -1), (1, 2, 5, 1)]),
    ]
    rows = []
    for name, terms in reps:
        co = wedge3_from_triples(terms)
        rows.append({
            "name": name,
            "terms": [{"triple": [i, j, k], "coefficient": v}
                      for i, j, k, v in terms],
            "rank": wedge3_c6_rank(co),
        })
    return {"representatives": rows, "max_rank": max(r["rank"] for r in rows)}


def _cmd_witness(args, out) -> int:
    if args.json and args.which == "f4" and args.seed is None:
        raise ValueError("--seed is required in --json mode for the "
                         "randomized f4 witness search")
    body = {
        "e7": _witness_e7,
        "f4": _witness_f4,
        "sp6": _witness_sp6,
        "sl6": _witness_sl6,
    }[args.which](args)
    report = {"schema": _schema("witness"), "witness": args.which}
    report.update(body)
    if args.json:
        _emit_json(report, out)
        return 0
    if args.which == "e7":
        out.write("graded pieces: %s\n" % body["grading_dims"])
        out.write("single-point orbit dimension: %d\n" % body["single_dim"])
        for k in sorted(body["pair_dims"], reverse=True):
            out.write("pair class (inner product %s): orbit dimension %s\n"
                      % (k, body["pair_dims"][k]))
        out.write("three-point witness orbit dimension: %d\n"
                  % body["witness_dim"])
    elif args.which == "f4":
        out.write("witness found over F_%d (seed %d)\n"
                  % (body["prime"], body["seed"]))
        out.write("image statistics: %s\n" % (body["stats"],))
        out.write("membership verified: %s; tangent rank %d (expected %d)\n"
                  % (body["membership_ok"], body["tangent_rank"],
                     body["expected_tangent_rank"]))
    elif args.which == "sp6":
        out.write("trace-free alternating witness: rank %d\n" % body["rank"])
        out.write("zero form contraction: %s; summand planes isotropic: %s\n"
                  % (body["contraction_is_zero"],
                     body["summand_planes_isotropic"]))
    else:
        for row in body["representatives"]:
            out.write("%-22s rank %d\n" % (row["name"], row["rank"]))
    return 0


def _parse_simple_type(text: str) -> SimpleType:
    text = text.strip().upper()
    if len(text) < 2 or text[0] not in "ABCDEFG" or not text[1:].isdigit():
        raise ValueError("bad simple type %r (expected e.g. E8, A5, G2)"
                         % text)
    return SimpleType(text[0], int(text[1:]))


def _cmd_orbit_dim(args, out) -> int:
    st = _parse_simple_type(args.type)
    alg = build_chevalley(st)
    sysm = alg.system
    theta_idx = alg.root_basis_index(sysm.positive_coeffs[-1])
    expr = args.element

    if expr == "root":
        dim = orbit_dim(alg, {theta_idx: 1})
        detail = {"element": "highest-root vector"}
    elif expr.startswith("pair:"):
        try:
            want, = exact_rationals([expr[5:]])
        except ValueError:
            raise ValueError("bad --element %r: %r is not a rational number"
                             % (expr, expr[5:])) from None
        classes = adjoint_pair_classes(alg)
        if want not in classes:
            raise ValueError(
                "no pair class with inner product %s; available: %s"
                % (want, sorted(str(v) for v in classes)))
        x = {theta_idx: 1}
        pid = alg.root_basis_index(classes[want])
        x[pid] = x.get(pid, 0) + 1
        dim = orbit_dim(alg, x)
        detail = {"element": "sum of two root vectors",
                  "inner_product": str(want)}
    elif expr == "3a1":
        if (st.family, st.rank) != ("E", 8):
            raise ValueError("the three-plane witness element is specific "
                             "to E8")
        rep = e7_wild_witness()
        dim = rep.witness_dim
        detail = {"element": "sum of three pairwise-orthogonal root vectors",
                  "roots": [list(r) for r in rep.element_roots]}
    else:
        raise ValueError("bad --element %r (expected root, pair:<value>, "
                         "or 3a1)" % expr)

    report = {"schema": _schema("orbit-dim"), "type": args.type.upper(),
              "algebra_dim": alg.dim, "orbit_dim": dim}
    report.update(detail)
    if args.json:
        _emit_json(report, out)
    else:
        out.write("%s %s: orbit dimension %d (algebra dimension %d)\n"
                  % (report["type"], report["element"], dim, alg.dim))
    return 0


def _oracle_check(family: str, table) -> dict:
    """Independent verification where a closed form exists; structural
    invariants otherwise.  The closed form is evaluated on every nonzero
    vector, a block of codes at a time."""
    from .oracle import _closed_form, _code_blocks, decode_array
    import numpy as np

    p, d = table.prime, table.points.dim
    ones = np.flatnonzero(table.ranks == 1)
    check = {"rank1_layer_is_cone":
             np.array_equal(ones, table.points.cone_codes()),
             "closed_form": None}
    closed = _closed_form(family, p)
    if closed is not None:
        label, rank_of = closed
        agree = all(np.array_equal(rank_of(decode_array(codes, p, d)),
                                   table.ranks[codes])
                    for codes in _code_blocks(1, p ** d))
        check["closed_form"] = {"kind": label, "agrees": agree}
    return check


def _cmd_oracle(args, out) -> int:
    table = rank_table(args.family, args.prime, threads=args.threads)
    report = {
        "schema": _schema("oracle"),
        "family": args.family,
        "prime": args.prime,
        "dim": family_dim(args.family),
        "points": len(table.points.reps),
        "layer_counts": {str(k): v for k, v in
                         sorted(table.layer_counts().items())},
        "max_rank": table.max_rank,
        "check": None,
    }
    if args.check:
        report["check"] = _oracle_check(args.family, table)
        if not report["check"]["rank1_layer_is_cone"]:
            raise AssertionError("rank-1 layer differs from the cone")
        cf = report["check"]["closed_form"]
        if cf is not None and not cf["agrees"]:
            raise AssertionError("closed-form rank disagrees with BFS")
    if args.json:
        _emit_json(report, out)
    else:
        out.write("%s over F_%d: %d points, ambient dimension %d\n"
                  % (args.family, args.prime, report["points"],
                     report["dim"]))
        out.write("rank layer sizes: %s\n" % report["layer_counts"])
        out.write("maximal rank: %d\n" % report["max_rank"])
        if report["check"] is not None:
            out.write("checks: %s\n" % json.dumps(report["check"]))
    return 0


def _cmd_table(args, out) -> int:
    if args.max_rank < 1:
        raise ValueError("--max-rank must be at least 1, got %d"
                         % args.max_rank)
    rows = generate_table(args.max_rank)
    body = [{
        "descriptor": format_descriptor(g),
        "status": verdict.status,
        "reason": verdict.reason,
        "citation": verdict.citation,
    } for g, verdict in rows]
    report = {
        "schema": _schema("table"),
        "max_rank": args.max_rank,
        "count": len(body),
        "rows": body,
    }
    if args.json or args.format == "json":
        _emit_json(report, out)
        return 0
    out.write("| pair | verdict | justification |\n")
    out.write("|---|---|---|\n")
    for row in body:
        out.write("| `%s` | %s | %s |\n"
                  % (row["descriptor"], row["status"], row["citation"]))
    out.write("\n%d tame pairs with simple factors of rank <= %d\n"
              % (len(body), args.max_rank))
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secant",
                     description="Exact tame/wild classification of "
                                 "homogeneous tensor families, with "
                                 "finite-field oracles and hand-checkable "
                                 "witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="versioned machine-readable output")

    p = sub.add_parser("classify", help="tame/wild verdict for a descriptor")
    p.add_argument("descriptor", help='e.g. "A5[0,0,1,0,0]" or "G2[1,0]"')
    add_json(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("rank", help="exact rank of a tensor from a JSON file")
    p.add_argument("shape", choices=SHAPES)
    p.add_argument("file", help="JSON tensor document")
    add_json(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("chop-tree",
                       help="parabolic-reduction chain for a wild pair")
    p.add_argument("descriptor")
    add_json(p)
    p.set_defaults(func=_cmd_chop_tree)

    p = sub.add_parser("witness", help="hand-checkable wildness witnesses")
    p.add_argument("which", choices=("e7", "f4", "sp6", "sl6"))
    p.add_argument("--prime", type=int, default=101,
                   help="modulus for the f4 search (default 101)")
    p.add_argument("--seed", type=int, default=None,
                   help="search seed (required with --json for f4)")
    p.add_argument("--budget", type=int, default=200,
                   help="f4 search attempt budget (default 200)")
    add_json(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("orbit-dim",
                       help="exact orbit dimension of a nilpotent element")
    p.add_argument("type", help="simple type, e.g. E8")
    p.add_argument("--element", required=True,
                   help="root | pair:<inner product> | 3a1")
    add_json(p)
    p.set_defaults(func=_cmd_orbit_dim)

    p = sub.add_parser("oracle",
                       help="finite-field exhaustive rank table")
    p.add_argument("family", help="e.g. gr2-6, segre-2x3, spinor10")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--check", action="store_true",
                   help="verify structural invariants and closed forms")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    add_json(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("table", help="the tame classification table")
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--format", choices=("md", "json"), default="md")
    add_json(p)
    p.set_defaults(func=_cmd_table)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser: parsing leaves it unchanged, so it is built
    once rather than on every `main` call."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
        return args.func(args, out)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
