"""Diagram chopping and the automatic search for wildness certificates.

Chopping removes vertices from the marked Dynkin diagram of a pair
(group, highest weight) and keeps the connected components of what is
left, with the marks restricted.  Wildness descends along chopping: if a
chopped pair is wild, so is the original.  A certificate is therefore a
chain of chopping steps ending in a registered wild base case; replaying
the chain verifies the wildness claim mechanically.

The layer reads one diagram record per type (`rootsys.diagram`) and
builds no roots.  `chop` validates its removal selection and hands it to
one core, `_chop`, which the certificate search also calls with the
removals it builds.  The core grows only the components that carry a mark
(canonicalization would drop the others) and identifies each through
`_subdiagram`, a table keyed on the diagram structure (type, vertex tuple)
that holds the recognised type and all its vertex bijections, found along
the parent links of the candidate type.  The table is built lazily and
kept; the smallest transported mark vector is still chosen among the
bijections on every chop.  No cache is keyed on a descriptor.

The search chops only boundaries.  Removing S from a diagram whose one mark
sits at m leaves the component C of m, and the chop depends on C alone.
Every S that leaves C contains the boundary of C (its neighbours outside
it), and the boundary is the only such S of that size, so it comes first
among them in size-then-lex order.  Dynkin diagrams are trees, so distinct
connected sets have distinct boundaries.  Chopping the boundaries of the
connected sets that hold m, sorted by size and then lexicographically,
therefore meets every chop result in the order, and with the removal, that
a scan of all 2^r - 1 subsets meets it first, in polynomially many chops.

One such pass is the whole search, because a chop of a chop is a chop.
Chopping the result for C again keeps a connected set C' of C that holds
the mark, and C' is itself a connected set of the original diagram holding
m.  The recognised type of C' and its smallest transported marks do not
depend on the route that reached it, so the second chop equals the first
chop of the root at the boundary of C'.  Every chain of chops thus ends
in a state that one chop of the root reaches, and a certificate needs at
most one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .rootsys import (
    _RANK_BOUNDS,
    CapExceeded,
    Diagram,
    GroupDescriptor,
    SimpleType,
    canonicalize,
    diagram,
    format_descriptor,
    height,
)

# ---------------------------------------------------------------------------
# positions whose fundamental module is "dense": the group acts transitively
# on the projective space of the module.  Exactly the natural modules of
# special linear factors (first or last vertex) and of symplectic factors
# (first vertex).


def dense_position(family: str, rank: int, pos: int) -> bool:
    """1-based vertex `pos` carries a projectively-dense fundamental module."""
    if family == "A":
        return pos == 1 or pos == rank
    if family == "C":
        return pos == 1
    return False


def _unit_marks(g: GroupDescriptor) -> list[tuple[int, int, str, int]]:
    """Each unit of each mark as (factor index, 1-based vertex, family, rank)."""
    units = []
    for fi, (st, marks) in enumerate(g.factors):
        for pos, m in enumerate(marks, start=1):
            units.extend([(fi, pos, st.family, st.rank)] * m)
    return units


def height2_tame(g: GroupDescriptor) -> bool:
    """Height-2 rule: tame iff the weight is a sum of two dense fundamentals.
    ValueError unless the descriptor has height 2."""
    units = _unit_marks(g)
    if len(units) != 2:
        raise ValueError("height-2 rule applied to %s of height %d"
                         % (format_descriptor(g), len(units)))
    return all(dense_position(fam, rk, pos) for _, pos, fam, rk in units)


# ---------------------------------------------------------------------------
# chopping proper


def _normalize_removed(g: GroupDescriptor, removed) -> tuple[tuple[int, ...], ...]:
    nf = len(g.factors)
    per_factor: list[set[int]] = [set() for _ in range(nf)]
    if isinstance(removed, dict):
        for fi, verts in removed.items():
            if not 0 <= fi < nf:
                raise ValueError("factor index %r out of range" % (fi,))
            per_factor[fi].update(int(v) for v in verts)
    else:
        seq = list(removed)
        if nf == 1 and all(isinstance(v, int) for v in seq):
            per_factor[0].update(seq)
        else:
            if len(seq) != nf:
                raise ValueError(
                    "removed vertex selection has %d groups for %d factors"
                    % (len(seq), nf))
            for fi, verts in enumerate(seq):
                per_factor[fi].update(int(v) for v in verts)
    for fi, verts in enumerate(per_factor):
        rank = g.factors[fi][0].rank
        for v in verts:
            if not 1 <= v <= rank:
                raise ValueError(
                    "removed vertex %d out of range 1..%d in factor %s"
                    % (v, rank, g.factors[fi][0]))
    return tuple(tuple(sorted(v)) for v in per_factor)


def _marked_components(st: SimpleType, marks, removed) -> list[tuple[int, ...]]:
    """Connected components of the diagram minus `removed` that carry a
    mark, as sorted 1-based vertex tuples; unmarked components are never
    grown, since canonicalization would drop them."""
    nbrs = diagram(st).neighbours
    seen = {v - 1 for v in removed}
    comps = []
    for v, m in enumerate(marks):
        if not m or v in seen:
            continue
        seen.add(v)
        comp = [v + 1]
        stack = [v]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w + 1)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def _candidate_types(r: int) -> list[SimpleType]:
    return [SimpleType(fam, r) for fam, (lo, hi) in _RANK_BOUNDS.items()
            if lo <= r and (hi is None or r <= hi)]


def _diagram_bijections(d: Diagram, members: set[int], target: Diagram):
    """All vertex bijections sigma from `target` onto the connected vertex
    set `members` (0-based) of diagram `d` with equal Cartan entries.

    Both are trees, so sigma grows along the parent links of `target`:
    vertex 0 goes to a vertex of its degree, vertex i > 0 to an unused
    neighbour of its parent's image with the same two Cartan entries on
    that edge.  The r - 1 parent edges then go onto the r - 1 edges of
    `members`, so every entry matches (diagonals are all 2).
    """
    nbrs, cartan, tcartan = d.neighbours, d.cartan, target.cartan
    degree = len(target.neighbours[0])
    partial = [(v,) for v in sorted(members)
               if sum(w in members for w in nbrs[v]) == degree]
    for i, p in enumerate(target.parent[1:], start=1):
        want = (tcartan[i][p], tcartan[p][i])
        partial = [s + (v,) for s in partial for v in nbrs[s[p]]
                   if v in members and v not in s
                   and (cartan[v][s[p]], cartan[s[p]][v]) == want]
    return partial


@lru_cache(maxsize=None)
def _subdiagram(st: SimpleType, comp: tuple[int, ...]):
    """(recognised type, bijections) of a connected subdiagram of `st`.

    Families are tried in alphabetical order.  Each bijection lists, for
    the vertices of the recognised type in order, the 0-based index in
    `st` of the vertex it is matched with, so a mark tuple of `st` is
    transported by reading it at those indices.  Keyed on the diagram
    structure only, so the table holds at most one entry per connected
    subdiagram of each type.
    """
    members = {v - 1 for v in comp}
    for cand in _candidate_types(len(comp)):
        sigmas = _diagram_bijections(diagram(st), members, diagram(cand))
        if sigmas:
            return cand, sigmas
    raise AssertionError("unrecognized subdiagram %r of %s" % (comp, st))


def _chop(g: GroupDescriptor,
          removed: tuple[tuple[int, ...], ...]) -> GroupDescriptor:
    """Chop with an already-validated per-factor removal selection.

    Among the diagram automorphisms of each marked component, the
    lexicographically smallest transported mark vector is chosen, so the
    result is deterministic.
    """
    pieces = []
    for (st, marks), rm in zip(g.factors, removed):
        for comp in _marked_components(st, marks, rm):
            sub_type, sigmas = _subdiagram(st, comp)
            pieces.append(
                (sub_type, min(tuple(marks[i] for i in s) for s in sigmas)))
    return canonicalize(GroupDescriptor(tuple(pieces)))


def chop(g: GroupDescriptor, removed) -> GroupDescriptor:
    """Remove vertices (1-based, per factor) and canonicalize what is left.

    `removed` is an iterable of vertex numbers for single-factor descriptors,
    or one iterable per factor (or a {factor index: vertices} dict) for
    products.  Marks are restricted to the kept vertices; components with no
    marks are dropped, so chopping away every marked vertex yields the empty
    (trivial) descriptor.
    """
    return _chop(g, _normalize_removed(g, removed))


@dataclass(frozen=True)
class Chopping:
    """One chopping step: parent descriptor, removed vertices, canonical result."""

    parent: GroupDescriptor
    removed: tuple[tuple[int, ...], ...]
    result: GroupDescriptor


# ---------------------------------------------------------------------------
# wild base cases
#
# The registry is declarative data.  Each entry pairs a matching rule (a
# predicate on the canonical descriptor) with a self-contained mathematical
# justification; the search below reduces everything else to these by
# chopping.


@dataclass(frozen=True)
class BaseCase:
    id: str
    citation: str
    matches: Callable[[GroupDescriptor], bool]


def _single(family, rule):
    """Matching rule of the single-factor descriptors of one family:
    rule(type, marks), asked only once the family agrees."""
    def matches(g: GroupDescriptor) -> bool:
        if len(g.factors) != 1:
            return False
        st, marks = g.factors[0]
        return st.family == family and rule(st, marks)
    return matches


def _exact(id_, family, rank, marks_options, citation):
    """One simple type carrying one of the listed mark vectors."""
    options = tuple(marks_options)
    return BaseCase(id_, citation, _single(
        family, lambda st, marks: st.rank == rank and marks in options))


_ADJOINT_CITATION = (
    "the adjoint module of a simple group of type %s: outside types A and C "
    "the second secant variety of the adjoint variety (the projectivized "
    "minimal nilpotent orbit) contains nilpotent elements of rank 3, so rank "
    "and border rank differ and the module is wild")


def _adjoint(family, rank=None, min_rank=0):
    """The adjoint module of one type, or of a family from min_rank on."""
    name = family if rank is None else "%s%d" % (family, rank)

    def rule(st, marks):
        return ((rank is None or st.rank == rank) and st.rank >= min_rank
                and marks == diagram(st).highest_root_marks)
    return BaseCase("adjoint-" + name.lower(), _ADJOINT_CITATION % name,
                    _single(family, rule))


BASE_CASES: tuple[BaseCase, ...] = (
    _exact(
        "wedge3-sl6", "A", 5, [(0, 0, 1, 0, 0)],
        "alternating 3-tensors on F^6 under SL6: the tangent vector "
        "e4^e2^e3 + e1^e5^e3 + e1^e2^e6 is a limit of rank-2 sums (border "
        "rank 2) but has rank 3, so the second secant variety of Gr(3,6) "
        "contains exceptional vectors and the module is 2-wild"),
    BaseCase(
        "wedge3-sp-family",
        "primitive alternating 3-tensors on F^(2n), n >= 3, under the "
        "symplectic group: the vector z1^z2^z4 + z1^z5^z3 + z6^z2^z3, "
        "built from a standard symplectic basis of a 6-dimensional "
        "symplectic subspace, pairs to zero with the symplectic form, "
        "is a sum of three isotropic decomposables of border rank 2 and "
        "rank 3, so the second secant variety contains exceptional "
        "vectors for every n >= 3",
        _single("C", lambda st, marks: (st.rank >= 3 and marks[2] == 1
                                        and sum(marks) == 1))),
    _exact(
        "halfspin-d6", "D", 6, [(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)],
        "the 32-dimensional half-spin module of Spin12: the second secant "
        "variety of the 15-dimensional spinor variety contains tangent "
        "vectors of rank 3, hence exceptional vectors"),
    _exact(
        "spin-b5", "B", 5, [(0, 0, 0, 0, 1)],
        "the 32-dimensional spin module of Spin11: its closed orbit is the "
        "same 15-dimensional spinor variety as for Spin12, so the rank-3 "
        "tangent vectors in the second secant variety persist and the "
        "module is wild"),
    _adjoint("B", min_rank=3),
    _adjoint("D", min_rank=4),
    _adjoint("E", 6),
    _adjoint("E", 7),
    _adjoint("E", 8),
    _adjoint("F", 4),
    _adjoint("G", 2),
    _exact(
        "f4-second-fundamental", "F", 4, [(0, 1, 0, 0)],
        "the 273-dimensional second fundamental module of F4 (primitive "
        "alternating squares of traceless octonion-Hermitian 3x3 matrices): "
        "it contains vectors whose invariant-form image statistics "
        "(dimension, rank of the restricted form) equal (4,1), which no sum "
        "of two closed-orbit points attains, so the second secant variety "
        "contains exceptional vectors"),
    _exact(
        "e7-56dim", "E", 7, [(1, 0, 0, 0, 0, 0, 0)],
        "the 56-dimensional module of E7: its second secant variety is the "
        "whole space, while sums of two highest-weight-line vectors, viewed "
        "inside the 1-graded piece of the E8 Lie algebra, have E8-orbit "
        "dimension 58, 92 or 114; the module contains a vector of orbit "
        "dimension 112, which therefore has border rank 2 but rank 3"),
    BaseCase(
        "height3",
        "the highest weight has mark-sum at least 3; every tame pair "
        "has mark-sum at most 2, so the pair is wild",
        lambda g: height(g) >= 3),
    BaseCase(
        "height2-dense-failure",
        "the highest weight has mark-sum 2 but is not a sum of two "
        "fundamental weights of projectively-dense modules (the natural "
        "modules of SL and Sp factors); every tame height-2 pair is "
        "such a sum, so the pair is wild",
        lambda g: height(g) == 2 and not height2_tame(g)),
)

_BASE_BY_ID = {bc.id: bc for bc in BASE_CASES}


def match_base_case(g: GroupDescriptor) -> BaseCase | None:
    """First registered wild base case matching the canonical descriptor."""
    for bc in BASE_CASES:
        if bc.matches(g):
            return bc
    return None


@dataclass(frozen=True)
class Certificate:
    """A replayable wildness proof: chopping chain into a wild base case."""

    root: GroupDescriptor
    chain: tuple[Chopping, ...]
    base_case: str
    citation: str


def replay_certificate(cert: Certificate) -> bool:
    """Re-run every chopping step and re-match the base case; True iff valid."""
    current = cert.root
    for step in cert.chain:
        if step.parent != current:
            return False
        try:
            if chop(step.parent, step.removed) != step.result:
                return False
        except ValueError:  # a removal that `chop` rejects
            return False
        current = step.result
    bc = _BASE_BY_ID.get(cert.base_case)
    if bc is None or bc.citation != cert.citation:
        return False
    return bc.matches(current)


#: Largest simple-factor rank of the height-1 certificate search and of
#: `classifier.generate_table` (the table takes about 2 s at 32 on a
#: 2-CPU x86-64 host, most of it in the wild fundamentals' searches).
TABLE_RANK_CAP = 32


@lru_cache(maxsize=None)
def _mark_boundaries(st: SimpleType, pos: int) -> tuple[tuple[int, ...], ...]:
    """Boundaries of the connected vertex sets of `st` that hold vertex
    `pos`, the whole diagram left out, smallest and lexicographic first.

    Each is the removal that chops a weight marked only at `pos` down to its
    connected set (see the module docstring).  Keyed on (type, vertex).
    """
    nbrs = diagram(st).neighbours

    def grow(v, parent):
        # 1-based boundaries, inside the branch at v away from parent, of
        # the connected sets that hold v: each neighbour w is either cut
        # off (w joins the boundary) or kept with a connected set holding it
        out = [()]
        for w in nbrs[v]:
            if w != parent:
                options = [(w + 1,)] + grow(w, v)
                out = [b + o for b in out for o in options]
        return out

    return tuple(sorted((tuple(sorted(b)) for b in grow(pos - 1, -1) if b),
                        key=lambda b: (len(b), b)))


def find_wild_certificate(g: GroupDescriptor) -> Certificate | None:
    """Search for a wildness certificate for a canonical effective descriptor.

    Height >= 3 and failing height-2 weights certify directly from the
    height rules.  A fundamental (height-1) weight is matched against the
    registry and otherwise chopped once at each boundary of the connected
    sets that hold its mark (`_mark_boundaries`, size-then-lex order); the
    first result that matches the registry gives a one-step certificate.
    No longer chain can succeed where this pass fails (see the module
    docstring), and the pass finds the chain a size-then-lex scan of every
    removal subset finds.  Returns None when no certificate exists, which
    is the expected outcome for tame pairs.
    Raises CapExceeded for a height-1 factor of rank above TABLE_RANK_CAP.
    """
    g = canonicalize(g)
    h = height(g)
    if h == 0:
        return None
    if h >= 3:
        bc = _BASE_BY_ID["height3"]
        return Certificate(root=g, chain=(), base_case=bc.id, citation=bc.citation)
    if h == 2:
        if height2_tame(g):
            return None
        bc = _BASE_BY_ID["height2-dense-failure"]
        return Certificate(root=g, chain=(), base_case=bc.id, citation=bc.citation)

    # height 1: a single factor carrying one fundamental mark
    st, marks = g.factors[0]
    if st.rank > TABLE_RANK_CAP:
        raise CapExceeded("%s has rank above the certificate search cap %d"
                          % (st, TABLE_RANK_CAP))
    bc = match_base_case(g)
    if bc is not None:
        return Certificate(root=g, chain=(), base_case=bc.id, citation=bc.citation)
    for boundary in _mark_boundaries(st, marks.index(1) + 1):
        result = _chop(g, (boundary,))
        bc = match_base_case(result)
        if bc is not None:
            step = Chopping(parent=g, removed=(boundary,), result=result)
            return Certificate(root=g, chain=(step,), base_case=bc.id,
                               citation=bc.citation)
    return None


# ---------------------------------------------------------------------------
# JSON serialization (the `chop-tree` CLI command pretty-prints this)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "root": format_descriptor(cert.root),
        "chain": [
            {
                "parent": format_descriptor(step.parent),
                "removed": [list(v) for v in step.removed],
                "result": format_descriptor(step.result),
            }
            for step in cert.chain
        ],
        "base_case": cert.base_case,
        "citation": cert.citation,
    }


def certificate_to_text(cert: Certificate) -> str:
    lines = ["root: %s" % format_descriptor(cert.root)]
    for i, step in enumerate(cert.chain, start=1):
        removed = "; ".join(
            "factor %d: {%s}" % (fi, ",".join(map(str, verts)))
            for fi, verts in enumerate(step.removed) if verts)
        lines.append("step %d: remove %s -> %s"
                     % (i, removed or "{}", format_descriptor(step.result)))
    lines.append("base case: %s" % cert.base_case)
    lines.append("why wild: %s" % cert.citation)
    return "\n".join(lines)
