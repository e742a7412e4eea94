"""Spans around the calls into secant's modules, recorded in-process.

The tracer wraps each public module-level function of the nine secant
modules (and a few public methods named in ``METHODS``) from inside the
benchmark process.  A module-level name is patched in every module that
binds it, so ``from .classifier import classify`` in ``secant.cli`` is
traced too.  Spans live in flat in-memory lists and are written out once,
when the run ends.  Only the main thread records spans; the oracle's worker
threads call no wrapped function.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
import types

LAYERS = ("rootsys", "chopping", "classifier", "chevalley", "jordan",
          "ranks", "linalg", "oracle", "cli")

#: (module, class, method) triples traced besides module-level functions.
METHODS = (("chevalley", "ChevalleyAlgebra", "bracket"),
           ("oracle", "RankTable", "save"),
           ("oracle", "RankTable", "load"))


class Tracer:
    """Records one span per traced call: name, phase, parent, start, end
    and an optional extra value set by a per-name probe."""

    def __init__(self, probes=None):
        self.names: list = []
        self.phases: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.extra: dict = {}
        self.phase = ""
        self.active = False
        self._stack: list = []
        self._tid = threading.get_ident()
        self._probes = probes or {}
        self._undo: list = []

    # -- recording

    def _wrap(self, name, fn):
        tracer = self
        before, after = self._probes.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._tid:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            stack = tracer._stack
            tracer.names.append(name)
            tracer.phases.append(tracer.phase)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            state = before(args, kwargs) if before else None
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if after:
                tracer.extra[idx] = after(state, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Patch every public function of the traced layers, in every
        secant module that binds it, and the listed methods."""
        package = "secant"
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == package or name.startswith(package + ".")}
        for layer in LAYERS:
            mod = mods[package + "." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_function(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap(layer + "." + attr, obj)
                for other in mods.values():
                    if vars(other).get(attr) is obj:
                        self._undo.append((other, attr, obj))
                        setattr(other, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[package + "." + layer], cls_name)
            raw = cls.__dict__[meth]
            name = "%s.%s.%s" % (layer, cls_name, meth)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- output

    def spans(self):
        """Spans as (name, phase, parent, start, end, extra) tuples."""
        return [(self.names[i], self.phases[i], self.parents[i],
                 self.starts[i], self.ends[i], self.extra.get(i))
                for i in range(len(self.names))]

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header with the name
        table, then [phase, name id, parent, start, end, extra] per span."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(json.dumps({"names": table}) + "\n")
            for i in range(len(self.names)):
                fh.write(json.dumps([self.phases[i], ids[self.names[i]],
                                     self.parents[i], self.starts[i],
                                     self.ends[i], self.extra.get(i)]))
                fh.write("\n")


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "__wrapped__")
        and not isinstance(obj, type))


def output_probe(fn):
    """Probe pair storing fn(output) for each call."""
    return None, lambda state, args, kwargs, out: fn(out)


def argv_probe():
    """Probe pair storing the subcommand of a ``cli.main(argv)`` call."""
    def before(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0] if argv else ""
    return before, lambda state, args, kwargs, out: state


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children: dict = {}
    for idx, span in enumerate(spans):
        if span[2] >= 0:
            children.setdefault(span[2], []).append(idx)
    out = []
    for idx, span in enumerate(spans):
        start, end = span[3], span[4]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][3]):
            lo, hi = max(spans[c][3], start), min(spans[c][4], end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def outermost(spans, idx):
    """True when no ancestor of span idx has the same name, so summing the
    durations of outermost spans never counts recursion twice."""
    name = spans[idx][0]
    parent = spans[idx][2]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][2]
    return True
