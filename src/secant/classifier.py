"""Tame/wild classification of irreducible modules, with rank profiles.

A pair (semisimple group, irreducible module) is *tame* when rank equals
border rank everywhere, i.e. every secant variety of the closed orbit is
exactly the corresponding bounded-rank locus; otherwise it is *wild*.  The
decision procedure:

  * total mark-height >= 3  ->  wild;
  * height 2  ->  tame iff the weight is a sum of two fundamental weights
    of projectively-dense modules (natural modules of SL and Sp factors);
  * height 1  ->  a finite table of tame fundamental modules per family.

The height-1 table is data with one justification string per row, and the
chopping-certificate search is an independent wildness mechanism; tests
assert the two never disagree (double-entry against transcription errors).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chopping import (
    TABLE_RANK_CAP,
    Certificate,
    _unit_marks,
    dense_position,
    find_wild_certificate,
    height2_failing_factors,
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
# height-1 tame table (data; one justification per row)


def _fundamental_tame_citation(st: SimpleType, pos: int) -> str | None:
    """Justification string if (st, pi_pos) is a tame fundamental, else None."""
    fam, n = st.family, st.rank
    if fam == "A":
        if pos in (1, n):
            return ("natural module of a special linear group (or its "
                    "dual): the group is transitive on the projective "
                    "space, so every vector has rank 1")
        if pos in (2, n - 1):
            return ("alternating square of the natural special linear "
                    "module (or its dual): rank is half the rank of the "
                    "skew matrix, the rank strata are the orbits, and no "
                    "rank jumps occur in limits")
    elif fam == "B":
        if pos == 1:
            return ("vector module of an odd orthogonal group: the closed "
                    "orbit is a quadric whose complement is a single "
                    "orbit, every vector has rank at most 2")
        if pos == n and 2 * n + 1 <= 10:
            return ("spin module of an odd orthogonal group with ambient "
                    "dimension at most 10: the spinor variety is a quadric "
                    "(dimension 8) or the 16-dimensional spinor case, and "
                    "every spinor is a sum of at most two pure spinors, "
                    "with rank strata orbit closures")
    elif fam == "C":
        if pos == 1:
            return ("natural module of a symplectic group: the group is "
                    "transitive on the projective space, so every vector "
                    "has rank 1")
        if pos == 2:
            return ("primitive alternating square of the natural "
                    "symplectic module: rank is half the rank of the skew "
                    "matrix, rank strata are orbit closures")
    elif fam == "D":
        if pos == 1:
            return ("vector module of an even orthogonal group: the closed "
                    "orbit is a quadric whose complement is a single "
                    "orbit, every vector has rank at most 2")
        if pos in (n - 1, n) and 2 * n <= 10:
            return ("half-spin module of an even orthogonal group with "
                    "ambient dimension at most 10: a quadric (dimension 8) "
                    "or the 16-dimensional spinor case, every half-spinor "
                    "is a sum of at most two pure spinors")
    elif fam == "E" and n == 6:
        if pos in (1, 5):
            return ("27-dimensional module of E6 (the exceptional Jordan "
                    "algebra or its dual): the cubic-determinant rank "
                    "strata are orbit closures with maximal rank 3")
    elif fam == "F" and n == 4:
        if pos == 1:
            return ("26-dimensional module of F4 (traceless exceptional "
                    "Jordan algebra): Jordan-rank strata are orbit "
                    "closures with maximal rank 3")
    elif fam == "G" and n == 2:
        if pos == 1:
            return ("7-dimensional module of G2 (traceless octonions): the "
                    "closed orbit is a 5-dimensional quadric, every vector "
                    "has rank at most 2")
    return None


def _describe_unit(g: GroupDescriptor, fi: int, pos: int) -> str:
    st, _ = g.factors[fi]
    if st.family == "A":
        return ("natural SL%d module" % (st.rank + 1)
                if pos == 1 else "dual natural SL%d module" % (st.rank + 1))
    return "natural Sp%d module" % (2 * st.rank)


# ---------------------------------------------------------------------------
# the decision procedure


def classify(g: GroupDescriptor) -> TamenessVerdict:
    """Tame/wild verdict for a descriptor (canonicalized internally).

    Wild verdicts carry a replayable certificate.  Raises ValueError on the
    trivial (height-0) module.
    """
    g = canonicalize(g)
    h = height(g)
    if h == 0:
        raise ValueError("trivial one-dimensional module: no verdict "
                         "(effective pairs need height >= 1)")
    if h >= 3:
        cert = _wild_certificate(g)
        return TamenessVerdict("wild", REASON_H3, cert.citation, cert)
    if h == 2:
        if height2_tame(g):
            (f1, p1, _, _), (f2, p2, _, _) = _unit_marks(g)
            if f1 == f2 and p1 == p2:
                shape = "twice the %s" % _describe_unit(g, f1, p1)
            elif f1 == f2:
                shape = "%s plus the %s" % (
                    _describe_unit(g, f1, p1), _describe_unit(g, f2, p2))
            else:
                shape = "%s tensor the %s" % (
                    _describe_unit(g, f1, p1), _describe_unit(g, f2, p2))
            return TamenessVerdict(
                "tame", REASON_H2_LIST,
                "height-2 weight equal to a sum of two projectively-dense "
                "fundamental weights (%s); these sums are exactly the tame "
                "height-2 pairs" % shape)
        cert = _wild_certificate(g)
        failing = height2_failing_factors(g)
        names = ", ".join(str(g.factors[fi][0]) for fi in failing)
        return TamenessVerdict(
            "wild", REASON_H2_FAIL,
            cert.citation + " (non-dense factor: %s)" % names, cert)

    # height 1: single factor, single unit mark
    st, marks = g.factors[0]
    pos = marks.index(1) + 1
    citation = _fundamental_tame_citation(st, pos)
    if citation is not None:
        return TamenessVerdict("tame", REASON_TABLE, citation)
    cert = _wild_certificate(g)
    return TamenessVerdict("wild", REASON_CERTIFICATE, cert.citation, cert)


def _wild_certificate(g: GroupDescriptor) -> Certificate:
    """The certificate of a wild module; AssertionError if none is found."""
    cert = find_wild_certificate(g)
    if cert is None:
        raise AssertionError("no wildness certificate was found for %s, "
                             "which is not tame" % format_descriptor(g))
    return cert


# ---------------------------------------------------------------------------
# maximal typical rank (per variety underlying a tame pair)


def max_typical_rank(g: GroupDescriptor) -> RankProfile:
    """Maximal rank of a point for the variety underlying a tame pair.

    Raises ValueError on wild input.
    """
    g = canonicalize(g)
    verdict = classify(g)
    if not verdict.tame:
        raise ValueError(
            "%s is wild: no finite rank profile" % format_descriptor(g))

    if len(g.factors) == 2:
        dims = []
        for st, _marks in g.factors:
            dims.append(st.rank + 1 if st.family == "A" else 2 * st.rank)
        a, b = dims
        return RankProfile(
            "Segre(P(F^%d)xP(F^%d))" % (a, b), min(a, b), "min(m,n)")

    st, marks = g.factors[0]
    fam, n = st.family, st.rank
    h = sum(marks)
    if h == 2:
        pos = [p for p, m in enumerate(marks, start=1) if m]
        if len(pos) == 1:  # 2*pi at a dense vertex: Veronese square
            m = n + 1 if fam == "A" else 2 * n
            return RankProfile("Ver2(P(F^%d))" % m, m, "m")
        m = n + 1  # pi_1 + pi_n of SL: flag of line and hyperplane
        return RankProfile("Fl(1,%d;F^%d)" % (m - 1, m), m, "m")

    pos = marks.index(1) + 1
    if fam == "A":
        m = n + 1
        if pos in (1, n):
            return RankProfile("P(F^%d)" % m, 1, "1")
        return RankProfile("Gr2(F^%d)" % m, m // 2, "floor(m/2)")
    if fam == "B":
        if pos == 1:
            return RankProfile("Q^%d" % (2 * n - 1), 2, "2")
        # spin, ambient 2n+1 <= 10
        if n == 3:
            return RankProfile("Q^6", 2, "2")
        return RankProfile("S^10", 2, "2")
    if fam == "C":
        if pos == 1:
            return RankProfile("P(F^%d)" % (2 * n), 1, "1")
        return RankProfile("Gr_w(2,F^%d)" % (2 * n), n, "n")
    if fam == "D":
        if pos == 1:
            return RankProfile("Q^%d" % (2 * n - 2), 2, "2")
        if n == 4:
            return RankProfile("Q^6", 2, "2")
        return RankProfile("S^10", 2, "2")
    if fam == "E":
        return RankProfile("E^16", 3, "3")
    if fam == "F":
        return RankProfile("F^15", 3, "3")
    return RankProfile("Q^5", 2, "2")  # G2 pi_1


# ---------------------------------------------------------------------------
# table regeneration


def _canonical_single_types(max_rank: int) -> list[SimpleType]:
    out = [SimpleType("A", r) for r in range(1, max_rank + 1)]
    out += [SimpleType("B", r) for r in range(3, max_rank + 1)]
    out += [SimpleType("C", r) for r in range(2, max_rank + 1)]
    out += [SimpleType("D", r) for r in range(4, max_rank + 1)]
    out += [SimpleType("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(SimpleType("F", 4))
    if max_rank >= 2:
        out.append(SimpleType("G", 2))
    return out


def _all_marks_up_to_height(rank: int, hmax: int):
    """All nonnegative mark tuples with 1 <= sum <= hmax."""
    def rec(pos: int, remaining: int):
        if pos == rank:
            yield ()
            return
        for m in range(remaining + 1):
            for rest in rec(pos + 1, remaining - m):
                yield (m,) + rest
    for marks in rec(0, hmax):
        if sum(marks) >= 1:
            yield marks


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

    Only possible tame candidates are classified: every weight of height 3
    is wild by the height rule, and a product of two fundamentals has
    height 2, so it is tame only if both positions are dense.  So singles
    of height <= 2 and products of two dense fundamentals are enumerated,
    and each of them still goes through `classify`.

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
    for st in singles:
        for marks in _all_marks_up_to_height(st.rank, 2):
            g = canonicalize(GroupDescriptor(((st, marks),)))
            if height(g) == 0 or g in rows:
                continue
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
