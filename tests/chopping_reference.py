"""References for diagram chopping and the certificate search.

`reference_chop` is the earlier `chop`, kept here only to check the
marked-component core of `secant.chopping` against: it grows every
connected component of the kept subdiagram, marked or not, identifies each
one by backtracking over diagram bijections against every candidate type,
and leaves the unmarked ones for canonicalization to drop.

`reference_find_wild_certificate` is the earlier height-1 search, which
chops every state at all of its 2^r removal subsets in size-then-lex order
(`removal_subsets`); the boundary-first search must find the same
certificates.  Nothing in `secant` imports this module.
"""

from __future__ import annotations

from itertools import combinations

from secant.chopping import (
    Certificate,
    Chopping,
    _candidate_types,
    _chop,
    _diagram_bijections,
    _normalize_removed,
    match_base_case,
)
from secant.rootsys import (
    CapExceeded,
    GroupDescriptor,
    SimpleType,
    build_root_system,
    canonicalize,
    height,
)


def factor_components(cartan, kept: list[int]) -> list[list[int]]:
    """Connected components of the induced subdiagram, vertices 1-based."""
    kept_set = set(kept)
    seen: set[int] = set()
    comps = []
    for start in kept:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for w in kept_set:
                if w not in seen and cartan[v - 1][w - 1] != 0:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def identify_component(sub_cartan, comp_marks) -> tuple[SimpleType, tuple[int, ...]]:
    """Recognize a connected sub-Cartan matrix and transport the marks,
    choosing the lexicographically smallest transported mark vector."""
    r = len(sub_cartan)
    for st in _candidate_types(r):
        target = build_root_system(st).cartan
        best = None
        for sigma in _diagram_bijections(sub_cartan, target):
            marks = tuple(comp_marks[v] for v in sigma)
            if best is None or marks < best:
                best = marks
        if best is not None:
            return st, best
    raise AssertionError("unrecognized connected diagram: %r" % (sub_cartan,))


def reference_chop(g: GroupDescriptor, removed) -> GroupDescriptor:
    """Remove vertices (1-based, per factor), identify every component of
    what is left and canonicalize."""
    removed_norm = _normalize_removed(g, removed)
    pieces: list[tuple[SimpleType, tuple[int, ...]]] = []
    for (st, marks), rm in zip(g.factors, removed_norm):
        sys = build_root_system(st)
        kept = [v for v in range(1, st.rank + 1) if v not in rm]
        for comp in factor_components(sys.cartan, kept):
            sub = [[sys.cartan[a - 1][b - 1] for b in comp] for a in comp]
            comp_marks = [marks[v - 1] for v in comp]
            pieces.append(identify_component(sub, comp_marks))
    return canonicalize(GroupDescriptor(tuple(pieces)))


def removal_subsets(rank: int):
    """Every vertex subset, smallest and lexicographic first (the empty one
    first: it leaves a state as it is, which the search has already seen)."""
    verts = list(range(1, rank + 1))
    for size in range(rank + 1):
        yield from combinations(verts, size)


def reference_find_wild_certificate(
        g: GroupDescriptor, max_states: int = 1 << 16) -> Certificate | None:
    """Certificate search for a canonical height-1 descriptor that chops
    each state at every removal subset: registry first, then breadth-first
    search over at most three chopping steps."""
    assert height(g) == 1
    bc = match_base_case(g)
    if bc is not None:
        return Certificate(root=g, chain=(), base_case=bc.id, citation=bc.citation)
    seen = {g}
    frontier = [(g, ())]
    for _ in range(3):
        nxt = []
        for state, chain in frontier:
            st, _marks = state.factors[0]
            for subset in removal_subsets(st.rank):
                result = _chop(state, (subset,))
                if height(result) == 0 or result in seen:
                    continue
                seen.add(result)
                if len(seen) > max_states:
                    raise CapExceeded(
                        "certificate search exceeded %d states" % max_states)
                new_chain = chain + (
                    Chopping(parent=state, removed=(subset,), result=result),)
                hit = match_base_case(result)
                if hit is not None:
                    return Certificate(root=g, chain=new_chain,
                                       base_case=hit.id, citation=hit.citation)
                nxt.append((result, new_chain))
        frontier = nxt
    return None
