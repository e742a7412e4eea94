"""Tame/wild classification of irreducible modules, with rank profiles.

A pair (semisimple group, irreducible module) is *tame* when rank equals
border rank everywhere, i.e. every secant variety of the closed orbit is
exactly the corresponding bounded-rank locus; otherwise it is *wild*.  The
decision procedure:

  * total mark-height >= 3  ->  wild;
  * height 2  ->  tame iff the weight is a sum of two fundamental weights
    of projectively-dense modules (natural modules of SL and Sp factors);
  * height 1  ->  a finite table of tame fundamental modules per family.

The tame list is written once: `_TAME_CLASSES` holds one row per tame
class of fundamental modules (family, tame vertices at rank n,
justification, rank profile), `_dense_pair` describes the height-2 sums,
and the one lookup `_tame_class` serves both `classify` and
`max_typical_rank`.  A weight the list does not hold is wild, and
`classify` backs it with a certificate from the chopping layer, whose
registry of wild base cases is independent of this list; tests assert the
two never disagree (double-entry against transcription errors).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chopping import (
    TABLE_RANK_CAP,
    Certificate,
    _candidate_types,
    _unit_marks,
    dense_position,
    find_wild_certificate,
    height2_tame,
)
from .rootsys import (
    CapExceeded,
    GroupDescriptor,
    SimpleType,
    canonicalize,
    format_descriptor,
    height,
)

REASON_H3 = "h>=3"
REASON_H2_LIST = "h2-list"
REASON_H2_FAIL = "h2-fail"
REASON_TABLE = "fundamental-table"
REASON_CERTIFICATE = "certificate"


@dataclass(frozen=True)
class TamenessVerdict:
    status: str                      # "tame" | "wild"
    reason: str                      # one of the REASON_* constants
    citation: str
    certificate: Certificate | None = None

    @property
    def tame(self) -> bool:
        return self.status == "tame"


@dataclass(frozen=True)
class RankProfile:
    variety: str
    max_rank: int
    formula: str


# ---------------------------------------------------------------------------
# the tame list: one row per tame class of fundamental modules, as (family,
# its tame 1-based vertices at rank n, justification, rank profile at rank
# n); the first row of the weight's family that holds its vertex applies


_TAME_CLASSES = (
    ("A", lambda n: (1, n),
     "natural module of a special linear group (or its dual): the group is "
     "transitive on the projective space, so every vector has rank 1",
     lambda n: RankProfile("P(F^%d)" % (n + 1), 1, "1")),
    ("A", lambda n: (2, n - 1),
     "alternating square of the natural special linear module (or its "
     "dual): rank is half the rank of the skew matrix, the rank strata are "
     "the orbits, and no rank jumps occur in limits",
     lambda n: RankProfile("Gr2(F^%d)" % (n + 1), (n + 1) // 2, "floor(m/2)")),
    ("B", lambda n: (1,),
     "vector module of an odd orthogonal group: the closed orbit is a "
     "quadric whose complement is a single orbit, every vector has rank at "
     "most 2",
     lambda n: RankProfile("Q^%d" % (2 * n - 1), 2, "2")),
    ("B", lambda n: (n,) if 2 * n + 1 <= 10 else (),
     "spin module of an odd orthogonal group with ambient dimension at most "
     "10: the spinor variety is a quadric (dimension 8) or the "
     "16-dimensional spinor case, and every spinor is a sum of at most two "
     "pure spinors, with rank strata orbit closures",
     lambda n: RankProfile("Q^6" if n == 3 else "S^10", 2, "2")),
    ("C", lambda n: (1,),
     "natural module of a symplectic group: the group is transitive on the "
     "projective space, so every vector has rank 1",
     lambda n: RankProfile("P(F^%d)" % (2 * n), 1, "1")),
    ("C", lambda n: (2,),
     "primitive alternating square of the natural symplectic module: rank "
     "is half the rank of the skew matrix, rank strata are orbit closures",
     lambda n: RankProfile("Gr_w(2,F^%d)" % (2 * n), n, "n")),
    ("D", lambda n: (1,),
     "vector module of an even orthogonal group: the closed orbit is a "
     "quadric whose complement is a single orbit, every vector has rank at "
     "most 2",
     lambda n: RankProfile("Q^%d" % (2 * n - 2), 2, "2")),
    ("D", lambda n: (n - 1, n) if 2 * n <= 10 else (),
     "half-spin module of an even orthogonal group with ambient dimension "
     "at most 10: a quadric (dimension 8) or the 16-dimensional spinor "
     "case, every half-spinor is a sum of at most two pure spinors",
     lambda n: RankProfile("Q^6" if n == 4 else "S^10", 2, "2")),
    ("E", lambda n: (1, 5) if n == 6 else (),
     "27-dimensional module of E6 (the exceptional Jordan algebra or its "
     "dual): the cubic-determinant rank strata are orbit closures with "
     "maximal rank 3",
     lambda n: RankProfile("E^16", 3, "3")),
    ("F", lambda n: (1,),
     "26-dimensional module of F4 (traceless exceptional Jordan algebra): "
     "Jordan-rank strata are orbit closures with maximal rank 3",
     lambda n: RankProfile("F^15", 3, "3")),
    ("G", lambda n: (1,),
     "7-dimensional module of G2 (traceless octonions): the closed orbit is "
     "a 5-dimensional quadric, every vector has rank at most 2",
     lambda n: RankProfile("Q^5", 2, "2")),
)


def _natural_dim(st: SimpleType) -> int:
    """Dimension of the natural module of an SL (A) or Sp (C) factor."""
    return st.rank + 1 if st.family == "A" else 2 * st.rank


def _describe_unit(st: SimpleType, pos: int) -> str:
    """The dense fundamental module at 1-based vertex `pos` of `st`."""
    return "%snatural %s%d module" % (
        "dual " if st.family == "A" and pos != 1 else "",
        "SL" if st.family == "A" else "Sp", _natural_dim(st))


def _dense_pair(g: GroupDescriptor) -> tuple[str, RankProfile]:
    """(citation, profile) of a sum of two dense fundamental weights: the
    Segre product of two factors, or on one factor the Veronese square of
    one vertex or the line-hyperplane flag of the two ends of SL."""
    (f1, p1, _, _), (f2, p2, _, _) = _unit_marks(g)
    (st1, _), (st2, _) = g.factors[f1], g.factors[f2]
    m1, m2 = _natural_dim(st1), _natural_dim(st2)
    u1, u2 = _describe_unit(st1, p1), _describe_unit(st2, p2)
    if f1 != f2:
        shape, profile = "%s tensor the %s" % (u1, u2), RankProfile(
            "Segre(P(F^%d)xP(F^%d))" % (m1, m2), min(m1, m2), "min(m,n)")
    elif p1 == p2:
        shape, profile = "twice the " + u1, RankProfile(
            "Ver2(P(F^%d))" % m1, m1, "m")
    else:
        shape, profile = "%s plus the %s" % (u1, u2), RankProfile(
            "Fl(1,%d;F^%d)" % (m1 - 1, m1), m1, "m")
    return ("height-2 weight equal to a sum of two projectively-dense "
            "fundamental weights (%s); these sums are exactly the tame "
            "height-2 pairs" % shape, profile)


def _tame_class(g: GroupDescriptor) -> tuple[str, str, RankProfile] | None:
    """(reason, citation, profile) of a canonical descriptor on the tame
    list, or None: a fundamental weight on a row of `_TAME_CLASSES`, or a
    sum of two dense fundamental weights."""
    h = height(g)
    if h == 1:  # single factor, single unit mark
        st, marks = g.factors[0]
        pos = marks.index(1) + 1
        for family, vertices, citation, profile in _TAME_CLASSES:
            if family == st.family and pos in vertices(st.rank):
                return REASON_TABLE, citation, profile(st.rank)
    elif h == 2 and height2_tame(g):
        return (REASON_H2_LIST,) + _dense_pair(g)
    return None


def _effective(g: GroupDescriptor) -> GroupDescriptor:
    """The canonical form of `g`; ValueError on the trivial module."""
    g = canonicalize(g)
    if height(g) == 0:
        raise ValueError("trivial one-dimensional module: no verdict "
                         "(effective pairs need height >= 1)")
    return g


# ---------------------------------------------------------------------------
# the decision procedure

#: Verdict reason of the wild base cases that are height rules.
_WILD_REASONS = {"height3": REASON_H3, "height2-dense-failure": REASON_H2_FAIL}


def classify(g: GroupDescriptor) -> TamenessVerdict:
    """Tame/wild verdict for a descriptor (canonicalized internally).

    Wild verdicts carry a replayable certificate.  Raises ValueError on the
    trivial (height-0) module and on a type with no root system.
    """
    g = _effective(g)
    tame = _tame_class(g)
    if tame is not None:
        reason, citation, _ = tame
        return TamenessVerdict("tame", reason, citation)
    cert = find_wild_certificate(g)
    if cert is None:
        raise AssertionError("no wildness certificate was found for %s, "
                             "which is not tame" % format_descriptor(g))
    reason = _WILD_REASONS.get(cert.base_case, REASON_CERTIFICATE)
    citation = cert.citation
    if reason == REASON_H2_FAIL:
        failing = sorted({fi for fi, pos, fam, rk in _unit_marks(g)
                          if not dense_position(fam, rk, pos)})
        citation += " (non-dense factor: %s)" % ", ".join(
            str(g.factors[fi][0]) for fi in failing)
    return TamenessVerdict("wild", reason, citation, cert)


def max_typical_rank(g: GroupDescriptor) -> RankProfile:
    """Maximal rank of a point for the variety underlying a tame pair.

    Raises ValueError on the trivial module and on wild input.
    """
    g = _effective(g)
    tame = _tame_class(g)
    if tame is None:
        raise ValueError(
            "%s is wild: no finite rank profile" % format_descriptor(g))
    return tame[2]


# ---------------------------------------------------------------------------
# table regeneration


def _canonical_single_types(max_rank: int) -> list[SimpleType]:
    """The simple types of rank <= max_rank but B2 and D3 (C2 and A3)."""
    return [st for r in range(1, max_rank + 1) for st in _candidate_types(r)
            if str(st) not in ("B2", "D3")]


def _dual_reduce_product_factor(st: SimpleType, marks: tuple[int, ...]):
    """Flip an A-factor's single end mark to the first vertex (dual twist)."""
    if st.family == "A" and st.rank >= 2 and marks[-1] and not any(marks[:-1]):
        return marks[::-1]
    return marks


def _dense_fundamentals(st: SimpleType):
    """Fundamental mark tuples of `st` at projectively-dense positions."""
    for pos in range(1, st.rank + 1):
        if dense_position(st.family, st.rank, pos):
            yield tuple(int(t == pos - 1) for t in range(st.rank))


def generate_table(max_rank: int = 8):
    """All tame pairs among simple types of rank <= max_rank with marks of
    height <= 3, plus two-factor products of fundamental weights;
    deterministic order.

    Only possible tame candidates are classified: height 3 is wild, and a
    height-2 weight, single or a product, is tame only if it is a sum of
    two dense fundamentals.  So the fundamentals and the single and product
    sums of two dense fundamentals are enumerated, and each still goes
    through `classify` (about 2 s at rank 32 on a 2-CPU host).

    Product entries are normalized under the per-factor duality twist of SL
    factors (a mark on the last vertex becomes a mark on the first), since
    dualizing one factor is an automorphism-twist giving the same variety.
    Raises CapExceeded for max_rank above TABLE_RANK_CAP.
    """
    if max_rank > TABLE_RANK_CAP:
        raise CapExceeded("max rank %d exceeds the table cap %d"
                          % (max_rank, TABLE_RANK_CAP))
    rows: dict[GroupDescriptor, TamenessVerdict] = {}
    singles = _canonical_single_types(max_rank)
    for st in singles:  # canonical types, so each candidate is canonical
        dense = list(_dense_fundamentals(st))
        for marks in [tuple(int(t == pos) for t in range(st.rank))
                      for pos in range(st.rank)] + [
                tuple(map(sum, zip(m1, m2)))
                for i, m1 in enumerate(dense) for m2 in dense[i:]]:
            g = GroupDescriptor(((st, marks),))
            verdict = classify(g)
            if verdict.tame:
                rows[g] = verdict
    for i, st1 in enumerate(singles):
        for st2 in singles[i:]:
            for m1 in _dense_fundamentals(st1):
                for m2 in _dense_fundamentals(st2):
                    g = canonicalize(GroupDescriptor(((st1, m1), (st2, m2))))
                    verdict = classify(g)
                    if not verdict.tame:
                        continue
                    normalized = canonicalize(GroupDescriptor(tuple(
                        (st, _dual_reduce_product_factor(st, marks))
                        for st, marks in g.factors)))
                    if normalized not in rows:
                        rows[normalized] = classify(normalized)
    return sorted(rows.items(),
                  key=lambda kv: (len(kv[0].factors), format_descriptor(kv[0])))
