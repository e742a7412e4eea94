"""Root systems, weights, and Weyl dimensions in integer arithmetic.

Each family's simple roots are given once in explicit rational coordinates
("ε-coordinates"), normalized so long roots have squared length 2; they are
read only to clear the integer Gram matrix.  Every root is then an integer
simple-root coefficient tuple.  The simple-root numbering follows the
Onishchik–Vinberg textbook convention throughout the package (a conversion
table to Bourbaki numbering is in the README); tests pin each label through
the Weyl dimension formula.

Weights are plain integer tuples of marks: entry i is the pairing of the
weight with the i-th simple coroot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

from .linalg import Vec, _integer_matrix, dot

FAMILIES = "ABCDEFG"


class CapExceeded(RuntimeError):
    """A configured resource cap (rank, prime, table size) was hit."""


@dataclass(frozen=True, order=True)
class SimpleType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r" % (self.family,))
        if self.rank < 1:
            raise ValueError("rank must be positive, got %d" % self.rank)

    def __str__(self) -> str:
        return "%s%d" % (self.family, self.rank)


@dataclass(frozen=True)
class GroupDescriptor:
    """A product of simple factors, each carrying a dominant weight."""

    factors: tuple[tuple[SimpleType, tuple[int, ...]], ...]

    def __post_init__(self):
        for st, marks in self.factors:
            if len(marks) != st.rank:
                raise ValueError(
                    "factor %s carries %d marks, expected %d"
                    % (st, len(marks), st.rank))
            if any(m < 0 for m in marks):
                raise ValueError("marks must be nonnegative: %s" % (marks,))

    def __str__(self) -> str:
        return format_descriptor(self)


def height(obj) -> int:
    """Sum of all marks: of a mark tuple, or of every factor of a descriptor."""
    if isinstance(obj, GroupDescriptor):
        return sum(sum(marks) for _, marks in obj.factors)
    return sum(obj)


# ---------------------------------------------------------------------------
# descriptor text grammar:  E8[0,0,0,0,0,0,1,0]   A2xC3[1,0|0,1,0]


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse `A2xC3[1,0|0,1,0]`-style text.

    Lenient about low-rank aliases (B1, C1, D2) so that canonicalize can
    normalize them away; strict about the shape of the grammar and about
    mark counts matching ranks.
    """
    s = text.strip()
    if "[" not in s or not s.endswith("]"):
        raise ValueError("descriptor %r: expected NAME[marks]" % text)
    head, _, tail = s.partition("[")
    body = tail[:-1]
    type_tokens = [t.strip() for t in head.strip().split("x")]
    mark_groups = [g.strip() for g in body.split("|")]
    if len(type_tokens) != len(mark_groups):
        raise ValueError(
            "descriptor %r: %d factors but %d mark groups"
            % (text, len(type_tokens), len(mark_groups)))
    factors = []
    for tok, grp in zip(type_tokens, mark_groups):
        if len(tok) < 2 or tok[0] not in FAMILIES or not tok[1:].isdigit():
            raise ValueError("descriptor %r: bad factor name %r" % (text, tok))
        st = SimpleType(tok[0], int(tok[1:]))
        parts = [p.strip() for p in grp.split(",")] if grp else []
        try:
            marks = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError("descriptor %r: bad marks %r" % (text, grp)) from None
        if len(marks) != st.rank:
            raise ValueError(
                "descriptor %r: factor %s needs %d marks, got %d"
                % (text, st, st.rank, len(marks)))
        if any(m < 0 for m in marks):
            raise ValueError("descriptor %r: negative mark" % text)
        factors.append((st, marks))
    return GroupDescriptor(tuple(factors))


def format_descriptor(g: GroupDescriptor) -> str:
    head = "x".join(str(st) for st, _ in g.factors)
    body = "|".join(",".join(str(m) for m in marks) for _, marks in g.factors)
    return "%s[%s]" % (head, body)


# ---------------------------------------------------------------------------
# simple-root coordinate tables


def _basis(n: int):
    def e(i: int) -> list[Q]:
        v = [Q(0)] * n
        v[i - 1] = Q(1)
        return v
    return e


def _diff(n, i, j) -> Vec:
    e = _basis(n)
    return tuple(a - b for a, b in zip(e(i), e(j)))


def _e8_simple_roots() -> list[Vec]:
    e = _basis(8)
    roots = [
        _diff(8, 7, 6),   # α1
        _diff(8, 6, 5),   # α2
        _diff(8, 5, 4),   # α3
        _diff(8, 4, 3),   # α4
        _diff(8, 3, 2),   # α5
        _diff(8, 2, 1),   # α6
    ]
    a7 = [Q(1, 2)] * 8
    for i in range(1, 7):
        a7[i] = Q(-1, 2)
    roots.append(tuple(a7))  # α7 = (e1 + e8 - e2 - ... - e7)/2
    roots.append(tuple(a + b for a, b in zip(e(1), e(2))))  # α8 = e1 + e2
    return roots


def _simple_root_table(st: SimpleType) -> tuple[list[Vec], Q]:
    """(simple roots in ε-coordinates, form scale).

    The bilinear form on the ambient space is `scale * (standard dot)`,
    chosen so long roots get squared length 2.
    """
    fam, n = st.family, st.rank
    if fam == "A":
        return [_diff(n + 1, i, i + 1) for i in range(1, n + 1)], Q(1)
    if fam == "B":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(e(n)))
        return roots, Q(1)
    if fam == "C":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(2 * x for x in e(n)))
        return roots, Q(1, 2)
    if fam == "D":
        e = _basis(n)
        roots = [_diff(n, i, i + 1) for i in range(1, n)]
        roots.append(tuple(a + b for a, b in zip(e(n - 1), e(n))))
        return roots, Q(1)
    if fam == "E":
        e8 = _e8_simple_roots()
        return e8[8 - n:], Q(1)
    if fam == "F":
        e = _basis(4)
        a1 = tuple(Q(1, 2) * x for x in
                   (Q(1), Q(-1), Q(-1), Q(-1)))
        return [a1, tuple(e(4)), _diff(4, 3, 4), _diff(4, 2, 3)], Q(1)
    if fam == "G":
        e = _basis(3)
        a1 = _diff(3, 1, 2)
        a2 = tuple(Q(c) for c in (-2, 1, 1))
        return [a1, a2], Q(1, 3)
    raise ValueError("unknown family %r" % fam)


_RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}

_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def check_rank(st: SimpleType) -> None:
    """ValueError unless the family of st has a root system of its rank."""
    lo, hi = _RANK_BOUNDS[st.family]
    if st.rank < lo or (hi is not None and st.rank > hi):
        raise ValueError(
            "no root system for %s: rank out of range (%s)"
            % (st, "%d..%s" % (lo, hi if hi is not None else "∞")))


class RootSystem:
    """Root system of one simple type, in integer coordinates.

    Roots are simple-root coefficient tuples, generated by simple
    reflections read off the Cartan matrix.  Positive roots are those with
    nonnegative coefficients, ordered by height and then lexicographically
    by coefficients.  The invariant form on coefficients is the integer Gram
    matrix `gram`, cleared once from the simple roots of
    `_simple_root_table`: (Σ c_i α_i, Σ d_j α_j) = c^T gram d / gram_den.
    """

    def __init__(self, st: SimpleType):
        check_rank(st)
        self.type = st
        simple, scale = _simple_root_table(st)
        n = st.rank
        rows, den = _integer_matrix(simple)
        gram, self.gram_den = _integer_matrix(
            [scale * dot(a, b) / (den * den) for b in rows] for a in rows)
        self.gram: tuple[tuple[int, ...], ...] = tuple(map(tuple, gram))
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(2 * g // row[i] for g in row)
            for i, row in enumerate(self.gram))
        # the Weyl orbit of the simple roots is the whole root system
        found = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        frontier = list(found)
        while frontier:
            nxt = []
            for r in frontier:
                for i, m in enumerate(self.coroot_marks(r)):
                    img = r[:i] + (r[i] - m,) + r[i + 1:]
                    if img not in found:
                        found.add(img)
                        nxt.append(img)
            frontier = nxt
        expected = _ROOT_COUNTS[st.family](st.rank)
        if len(found) != expected:
            raise AssertionError(
                "generated %d roots for %s, expected %d"
                % (len(found), st, expected))
        self.positive_coeffs: tuple[tuple[int, ...], ...] = tuple(sorted(
            (c for c in found if sum(c) > 0), key=lambda c: (sum(c), c)))
        self.highest_root_marks: tuple[int, ...] = self.coroot_marks(
            self.positive_coeffs[-1])

    def coroot_marks(self, coeffs) -> tuple[int, ...]:
        """⟨β, αᵢ∨⟩ for every simple coroot, β = Σ coeffs_j α_j."""
        return tuple(sum(c * a for c, a in zip(coeffs, row) if c)
                     for row in self.cartan)

    def form(self, c, d) -> int:
        """gram_den * (Σ c_i α_i, Σ d_j α_j), in integers."""
        return sum(x * g * y for x, row in zip(c, self.gram) if x
                   for g, y in zip(row, d) if g and y)


@lru_cache(maxsize=None)
def build_root_system(st: SimpleType) -> RootSystem:
    """Construct (and memoize) the root system of one simple type."""
    return RootSystem(st)


# ---------------------------------------------------------------------------
# Weyl dimension


def weyl_dim(st: SimpleType, marks) -> int:
    """Dimension of the irreducible module with the given highest weight.

    Weyl's formula in coroot form, ∏ (λ+ρ, β∨) / (ρ, β∨) over the positive
    roots β = Σ c_j α_j; with (ω_j, β) = c_j (α_j, α_j) / 2 each factor is
    Σ c_j (m_j + 1) g_jj / Σ c_j g_jj, g the Gram matrix.  ValueError
    unless there are st.rank nonnegative marks, as for `GroupDescriptor`.
    """
    GroupDescriptor(((st, tuple(marks)),))
    sys = build_root_system(st)
    norms = [row[j] for j, row in enumerate(sys.gram)]
    num = den = 1
    for c in sys.positive_coeffs:
        num *= sum(x * (m + 1) * g for x, m, g in zip(c, marks, norms) if x)
        den *= sum(x * g for x, g in zip(c, norms) if x)
    d, rem = divmod(num, den)
    if rem or d <= 0:
        raise AssertionError("Weyl product %d / %d is not positive" % (num, den))
    return d


# ---------------------------------------------------------------------------
# canonical form of descriptors


def canonicalize(g: GroupDescriptor) -> GroupDescriptor:
    """Normalize a descriptor: resolve low-rank coincidences, drop factors
    with zero marks, sort factors.

    Relabelings (marks transported along the diagram isomorphism):
      B1, C1 → A1;  D2 → A1 x A1;  D3 → A3 (middle node first);  B2 → C2.
    """
    out: list[tuple[SimpleType, tuple[int, ...]]] = []
    for st, marks in g.factors:
        fam, n = st.family, st.rank
        if fam in "BC" and n == 1:
            out.append((SimpleType("A", 1), marks))
        elif fam == "D" and n == 2:
            # orthogonal pair of A1's; each spin label is one factor's weight
            out.append((SimpleType("A", 1), (marks[0],)))
            out.append((SimpleType("A", 1), (marks[1],)))
        elif fam == "D" and n == 3:
            # chain is α2 - α1 - α3, so the vector label becomes the middle mark
            out.append((SimpleType("A", 3), (marks[1], marks[0], marks[2])))
        elif fam == "B" and n == 2:
            # same diagram read from the other end
            out.append((SimpleType("C", 2), (marks[1], marks[0])))
        else:
            out.append((st, marks))
    kept = [(st, marks) for st, marks in out if any(marks)]
    kept.sort(key=lambda f: (f[0].family, f[0].rank, f[1]))
    return GroupDescriptor(tuple(kept))
