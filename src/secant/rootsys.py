"""Root systems, weights, and Weyl dimensions in integer arithmetic.

Each family is given once by its Dynkin diagram (`diagram`): the squared
length of each simple root and the edges, from which the Cartan and integer
Gram matrices are read.
Every root is an integer simple-root coefficient tuple.  The simple-root
numbering follows the Onishchik–Vinberg textbook convention throughout the
package (a conversion table to Bourbaki numbering is in the README); tests
pin each label through the Weyl dimension formula.

Weights are plain integer tuples of marks: entry i is the pairing of the
weight with the i-th simple coroot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

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
# Dynkin diagrams


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


class Diagram(NamedTuple):
    """The Dynkin diagram of one simple type, with no roots built.

    `lengths` are the squared simple-root lengths, the shortest 2 (1 in B).
    A, B, C, F and G are chains; D_n and E_n are a chain of n - 1 vertices
    with vertex n on vertex n - 2 (D) or n - 3 (E).  So each vertex i > 0
    has one earlier neighbour `parent[i]`, and these links are the edges.
    """

    lengths: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]
    neighbours: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    highest_root_marks: tuple[int, ...]


def _root_marks(cartan) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every root's coefficients mapped to its coroot marks: the Weyl orbit
    of the simple roots, where s_i moves the marks by Cartan column i."""
    cols = tuple(zip(*cartan))
    marks = {tuple(int(i == j) for j in range(len(cols))): col
             for i, col in enumerate(cols)}
    frontier = list(marks)
    while frontier:
        nxt = []
        for r in frontier:
            mr = marks[r]
            for i, m in enumerate(mr):
                if not m:
                    continue
                img = r[:i] + (r[i] - m,) + r[i + 1:]
                if img not in marks:
                    marks[img] = tuple(a - m * c for a, c in zip(mr, cols[i]))
                    nxt.append(img)
        frontier = nxt
    return marks


_HIGHEST_ROOT_MARKS = {
    "A": lambda n: (2,) if n == 1 else (1,) + (0,) * (n - 2) + (1,),
    "B": lambda n: (0, 2) if n == 2 else (0, 1) + (0,) * (n - 2),
    "C": lambda n: (2,) + (0,) * (n - 1),
    "D": lambda n: (0, 1, 1) if n == 3 else (0, 1) + (0,) * (n - 2),
}


@lru_cache(maxsize=None)
def diagram(st: SimpleType) -> Diagram:
    """The (memoized) diagram record of one simple type.

    The highest-root marks of A–D come from closed forms (Bourbaki, Lie
    Groups and Lie Algebras, Ch. VI, Plates I–IV, in the numbering here),
    those of E, F and G from the generated roots.
    """
    check_rank(st)
    fam, n = st.family, st.rank
    d = {"B": [2] * (n - 1) + [1], "C": [2] * (n - 1) + [4],
         "F": [2, 2, 4, 4], "G": [2, 6]}.get(fam, [2] * n)
    parent = [-1] + list(range(n - 1))
    parent[-1] -= {"D": 1, "E": 2}.get(fam, 0)  # the branch vertex of D, E
    nbrs = tuple(tuple(j for j in range(n) if parent[j] == i or parent[i] == j)
                 for i in range(n))
    cartan = tuple(tuple(2 if i == j else -max(d[i], d[j]) // d[i]
                         if j in nbrs[i] else 0 for j in range(n))
                   for i in range(n))
    if fam in _HIGHEST_ROOT_MARKS:
        marks = _HIGHEST_ROOT_MARKS[fam](n)
    else:
        roots = _root_marks(cartan)
        marks = roots[max(roots, key=lambda c: (sum(c), c))]
    return Diagram(tuple(d), cartan, nbrs, tuple(parent), marks)


class RootSystem:
    """Root system of one simple type, in integer coordinates.

    Roots are simple-root coefficient tuples generated by the simple
    reflections of the diagram record (`diagram`), whose highest-root marks
    they must reproduce.  Positive roots have nonnegative coefficients,
    ordered by height and then lexicographically.  The integer Gram matrix
    `gram` has the squared lengths d_i on the diagonal and -max(d_i, d_j)/2
    on an edge: (Σ c_i α_i, Σ d_j α_j) = c^T gram d / gram_den, with long
    roots of squared length 2.
    """

    def __init__(self, st: SimpleType):
        record = diagram(st)
        self.type = st
        self.cartan: tuple[tuple[int, ...], ...] = record.cartan
        # g_ij = a_ij d_i / 2, in lowest terms with gram_den; only C2, all
        # of whose entries are even, changes
        half = max(record.lengths) // 2
        gram = [[a * d // 2 for a in row]
                for row, d in zip(self.cartan, record.lengths)]
        common = gcd(half, *(x for row in gram for x in row))
        self.gram: tuple[tuple[int, ...], ...] = tuple(
            tuple(x // common for x in row) for row in gram)
        self.gram_den = half // common
        marks = _root_marks(self.cartan)
        expected = _ROOT_COUNTS[st.family](st.rank)
        if len(marks) != expected:
            raise AssertionError(
                "generated %d roots for %s, expected %d"
                % (len(marks), st, expected))
        self.positive_coeffs: tuple[tuple[int, ...], ...] = tuple(sorted(
            (c for c in marks if sum(c) > 0), key=lambda c: (sum(c), c)))
        self.highest_root_marks = record.highest_root_marks
        if marks[self.positive_coeffs[-1]] != self.highest_root_marks:
            raise AssertionError("%s: the highest generated root's marks "
                                 "differ from the diagram's" % st)

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
    ValueError for a factor with no root system left after them (E9, G3).
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
            check_rank(st)  # the relabelled types above all have one
            out.append((st, marks))
    kept = [(st, marks) for st, marks in out if any(marks)]
    kept.sort(key=lambda f: (f[0].family, f[0].rank, f[1]))
    return GroupDescriptor(tuple(kept))
