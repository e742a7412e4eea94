"""Exceptional 27-dimensional Jordan algebra with exact rank machinery.

Elements are Hermitian 3x3 matrices over an eight-dimensional composition
algebra (octonions with a positive definite norm form), stored by their six
independent slots: three diagonal scalars and three off-diagonal octonions.
The module provides

* exact determinant/adjugate arithmetic and the rank stratification 0..3,
* constructive splitting of rank-2 and rank-3 elements into rank-1 pieces
  (over the rationals or one explicit real quadratic extension),
* an integer-matrix basis of the 52-dimensional derivation algebra, and
* a seeded mod-p search producing a degenerate two-plane certificate: a
  decomposable two-form with image statistics (4, 1) inside the second
  fundamental representation of the derivation algebra.

All arithmetic is exact.  Coordinates are int first: a coordinate stays a
Python int until a true division forces a Fraction, and a Fraction that
comes back to denominator 1 is stored as an int again.  Rank-2 splits that
need sqrt(d) use QuadExt, which keeps integer numerators over one common
denominator.  Floats are rejected.  The mod-p witness search works on
machine integers mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache

from .linalg import (
    QuadExt,
    _integer_row,
    exact_rationals,
    int_row_basis,
    modp_nullspace,
    modp_rank,
    modp_row_reduce,
    rational_sqrt,
)
from .rootsys import CapExceeded, SimpleType, build_root_system

__all__ = [
    "FANO_LINES",
    "FANO_LINES_ALT",
    "AlbertElement",
    "Rank2Split",
    "Rank3Split",
    "F4WitnessResult",
    "oct_mul",
    "oct_conj",
    "oct_norm",
    "oct_dot",
    "jordan_rank",
    "f4_rank",
    "rank2_split",
    "rank3_split",
    "rank1_from_chart",
    "f4_derivations",
    "apply_matrix",
    "f4_pi2_witness_search",
    "albert_to_json",
    "albert_from_json",
    "random_albert",
    "random_tracefree",
    "random_rank1",
    "random_rank2_tracefree",
]


# ---------------------------------------------------------------------------
# Octonion arithmetic
# ---------------------------------------------------------------------------

#: Multiplication orientation for the basis 1, e1..e7: each oriented triple
#: (i, j, k) encodes ei*ej = ek (and cyclic rotations), ej*ei = -ek, with
#: ei*ei = -1.  Not every orientation of a line set yields a composition
#: algebra (the norm must be multiplicative); this one does, and any two
#: valid tables give isomorphic algebras.
FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 7, 6),
              (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))

#: A second orientation convention (lines i -> i+1 -> i+3 cyclically, indices
#: mod 7) used by tests to confirm rank computations are convention-free.
FANO_LINES_ALT = tuple((i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8))

ZERO_OCT = (0,) * 8


@lru_cache(maxsize=None)
def _mult_table(lines):
    """8x8 table: entry [i][j] = (k, sign) meaning e_i e_j = sign * e_k."""
    tab = [[None] * 8 for _ in range(8)]
    tab[0][0] = (0, 1)
    for i in range(1, 8):
        tab[0][i] = (i, 1)
        tab[i][0] = (i, 1)
        tab[i][i] = (0, -1)
    for (a, b, c) in lines:
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            if tab[i][j] is not None or tab[j][i] is not None:
                raise ValueError("line set assigns the pair (%d,%d) twice" % (i, j))
            tab[i][j] = (k, 1)
            tab[j][i] = (k, -1)
    for i in range(8):
        for j in range(8):
            if tab[i][j] is None:
                raise ValueError("line set misses the pair (%d,%d)" % (i, j))
    return tuple(tuple(row) for row in tab)


@lru_cache(maxsize=None)
def _flat_table(lines):
    """The 64 products e_i e_j = sign * e_k as flat (i, j, k, sign) tuples."""
    tab = _mult_table(lines)
    return tuple((i, j) + tab[i][j] for i in range(8) for j in range(8))


def _coerce_num(v):
    """Normal form of an exact scalar: an int, a Fraction with denominator
    > 1, or a QuadExt.  Floats are refused rather than converted, so an
    inexact value cannot slip into the exact arithmetic."""
    t = type(v)
    if t is int or t is QuadExt:
        return v
    if t is Q:
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, float):
        raise TypeError("inexact float coordinate %r; use an int, a Fraction "
                        "or an exact string" % (v,))
    if isinstance(v, int):
        return int(v)
    return _coerce_num(Q(v))


def _div(n, d):
    """Exact quotient: int / int stays an int when d divides n and becomes a
    Fraction otherwise; every other combination divides in its own type."""
    if type(n) is int and type(d) is int:
        q, r = divmod(n, d)
        return Q(n, d) if r else q
    return n / d


def _coerce_oct(v):
    if v is None:
        return ZERO_OCT
    co = tuple(_coerce_num(c) for c in v)
    if len(co) != 8:
        raise ValueError("octonion needs 8 coordinates, got %d" % len(co))
    return co


def oct_mul(u, v, lines=FANO_LINES):
    """Product of two octonions given by 8-coordinate tuples."""
    out = [0] * 8
    for i, j, k, s in _flat_table(lines):
        if s > 0:
            out[k] += u[i] * v[j]
        else:
            out[k] -= u[i] * v[j]
    return tuple(map(_coerce_num, out))


def oct_conj(u):
    return (u[0],) + tuple(-c for c in u[1:])


def oct_dot(u, v):
    """Bilinear dot of coordinates; equals Re(u * conj(v))."""
    s = 0
    for a, b in zip(u, v):
        s = s + a * b
    return _coerce_num(s)


def oct_norm(u):
    return oct_dot(u, u)


def oct_scale(u, s):
    return tuple(s * c for c in u)


# ---------------------------------------------------------------------------
# Hermitian 3x3 elements
# ---------------------------------------------------------------------------

class AlbertElement:
    """Hermitian 3x3 matrix over the octonions.

    Stored as (a, b, c; x, y, z) for the matrix

        [[a,       z,  conj(y)],
         [conj(z), b,  x      ],
         [y,  conj(x), c      ]]

    with a, b, c scalars and x, y, z octonions.  Coordinates live in Q (ints
    where integral, Fractions otherwise) or in one quadratic extension
    Q(sqrt(d)); all operations are exact.
    """

    __slots__ = ("a", "b", "c", "x", "y", "z", "lines")

    def __init__(self, a=0, b=0, c=0, x=None, y=None, z=None, lines=FANO_LINES):
        self.a = _coerce_num(a)
        self.b = _coerce_num(b)
        self.c = _coerce_num(c)
        self.x = _coerce_oct(x)
        self.y = _coerce_oct(y)
        self.z = _coerce_oct(z)
        self.lines = lines

    # -- constructors

    @classmethod
    def zero(cls, lines=FANO_LINES):
        return cls(lines=lines)

    @classmethod
    def identity(cls, lines=FANO_LINES):
        return cls(1, 1, 1, lines=lines)

    @classmethod
    def diag(cls, a, b, c, lines=FANO_LINES):
        return cls(a, b, c, lines=lines)

    @classmethod
    def from_coords(cls, coords, lines=FANO_LINES):
        co = list(coords)
        if len(co) != 27:
            raise ValueError("need 27 coordinates, got %d" % len(co))
        return cls(co[0], co[1], co[2], co[3:11], co[11:19], co[19:27], lines=lines)

    @classmethod
    def basis_element(cls, i, lines=FANO_LINES):
        co = [0] * 27
        co[i] = 1
        return cls.from_coords(co, lines=lines)

    # -- plumbing

    def coords(self):
        """Flat coordinate list: a, b, c, x0..x7, y0..y7, z0..z7."""
        return [self.a, self.b, self.c, *self.x, *self.y, *self.z]

    def _check_compatible(self, other):
        if not isinstance(other, AlbertElement):
            raise TypeError("expected an AlbertElement")
        if self.lines != other.lines:
            raise ValueError("mixed octonion multiplication conventions")

    def __eq__(self, other):
        if not isinstance(other, AlbertElement):
            return NotImplemented
        return self.lines == other.lines and self.coords() == other.coords()

    def __hash__(self):
        return hash(tuple(self.coords()))

    def _cleared(self):
        """(L * self, L) with L the lcm of the coordinate denominators, so
        the scaled element has int coordinates; (self, 1) when self is
        already integral or has coordinates outside Q."""
        co = self.coords()
        if any(type(v) is not int and type(v) is not Q for v in co):
            return self, 1
        ints, den = _integer_row(co)
        if den == 1:
            return self, 1
        return AlbertElement.from_coords(ints, lines=self.lines), den

    def is_zero(self):
        return not any(self.coords())

    def __repr__(self):
        return "AlbertElement(a=%s, b=%s, c=%s, x=%s, y=%s, z=%s)" % (
            self.a, self.b, self.c, self.x, self.y, self.z)

    # -- linear structure

    def __add__(self, other):
        self._check_compatible(other)
        return AlbertElement(
            self.a + other.a, self.b + other.b, self.c + other.c,
            tuple(p + q for p, q in zip(self.x, other.x)),
            tuple(p + q for p, q in zip(self.y, other.y)),
            tuple(p + q for p, q in zip(self.z, other.z)),
            lines=self.lines)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = _coerce_num(s)
        return AlbertElement(
            s * self.a, s * self.b, s * self.c,
            oct_scale(self.x, s), oct_scale(self.y, s), oct_scale(self.z, s),
            lines=self.lines)

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    # -- algebra structure

    def trace(self):
        return _coerce_num(self.a + self.b + self.c)

    def inner(self, other):
        """Trace bilinear form Tr(self o other); positive definite over Q."""
        self._check_compatible(other)
        return _coerce_num(self.a * other.a + self.b * other.b + self.c * other.c
                           + 2 * (oct_dot(self.x, other.x)
                                  + oct_dot(self.y, other.y)
                                  + oct_dot(self.z, other.z)))

    def jordan(self, other):
        """Symmetrized matrix product (XY + YX) / 2, again Hermitian."""
        self._check_compatible(other)
        ln = self.lines
        a1, b1, c1, x1, y1, z1 = self.a, self.b, self.c, self.x, self.y, self.z
        a2, b2, c2, x2, y2, z2 = other.a, other.b, other.c, other.x, other.y, other.z
        na = a1 * a2 + oct_dot(z1, z2) + oct_dot(y1, y2)
        nb = b1 * b2 + oct_dot(z1, z2) + oct_dot(x1, x2)
        nc = c1 * c2 + oct_dot(y1, y2) + oct_dot(x1, x2)
        tx = oct_mul(oct_conj(z1), oct_conj(y2), ln)
        tx2 = oct_mul(oct_conj(z2), oct_conj(y1), ln)
        nx = tuple(_div(p + q + (b1 + c1) * r + (b2 + c2) * s, 2)
                   for p, q, r, s in zip(tx, tx2, x2, x1))
        ty = oct_mul(oct_conj(x1), oct_conj(z2), ln)
        ty2 = oct_mul(oct_conj(x2), oct_conj(z1), ln)
        ny = tuple(_div(p + q + (a2 + c2) * r + (a1 + c1) * s, 2)
                   for p, q, r, s in zip(ty, ty2, self.y, other.y))
        tz = oct_mul(oct_conj(y1), oct_conj(x2), ln)
        tz2 = oct_mul(oct_conj(y2), oct_conj(x1), ln)
        nz = tuple(_div(p + q + (a1 + b1) * r + (a2 + b2) * s, 2)
                   for p, q, r, s in zip(tz, tz2, z2, z1))
        return AlbertElement(na, nb, nc, nx, ny, nz, lines=ln)

    def det3(self):
        """Cubic norm: a b c - a N(x) - b N(y) - c N(z) + 2 Re((x y) z)."""
        whole, den = self._cleared()
        if den != 1:
            return _div(whole.det3(), den ** 3)
        ln = self.lines
        xy = oct_mul(self.x, self.y, ln)
        re_xyz = oct_dot(xy, oct_conj(self.z))
        return (self.a * self.b * self.c
                - self.a * oct_norm(self.x)
                - self.b * oct_norm(self.y)
                - self.c * oct_norm(self.z)
                + 2 * re_xyz)

    def adjugate(self):
        """Sharp element with x o x# = det3(x) * identity and rank duality."""
        whole, den = self._cleared()
        if den != 1:
            return whole.adjugate().scale(Q(1, den * den))
        ln = self.lines
        na = self.b * self.c - oct_norm(self.x)
        nb = self.c * self.a - oct_norm(self.y)
        nc = self.a * self.b - oct_norm(self.z)
        nx = tuple(p - self.a * r for p, r in
                   zip(oct_mul(oct_conj(self.z), oct_conj(self.y), ln), self.x))
        ny = tuple(p - self.b * r for p, r in
                   zip(oct_mul(oct_conj(self.x), oct_conj(self.z), ln), self.y))
        nz = tuple(p - self.c * r for p, r in
                   zip(oct_mul(oct_conj(self.y), oct_conj(self.x), ln), self.z))
        return AlbertElement(na, nb, nc, nx, ny, nz, lines=ln)

    def cross(self, other):
        """Bilinear polarization of the adjugate: (u+v)# - u# - v#."""
        self._check_compatible(other)
        return (self + other).adjugate() - self.adjugate() - other.adjugate()


# ---------------------------------------------------------------------------
# Rank stratification
# ---------------------------------------------------------------------------

def jordan_rank(x: AlbertElement) -> int:
    """Matrix rank 0..3: 0 iff x = 0; 1 iff x# = 0, x != 0; 2 iff det3 = 0,
    x# != 0; 3 otherwise."""
    if x.is_zero():
        return 0
    # the rank of the integral multiple, whose x# and det3 need no division
    whole, _ = x._cleared()
    if whole.adjugate().is_zero():
        return 1
    if whole.det3() == 0:
        return 2
    return 3


def _check_tracefree(x: AlbertElement) -> None:
    if x.is_zero():
        raise ValueError("the zero element has no rank stratum")
    if x.trace() != 0:
        raise ValueError("element must be trace-free (trace is %s)" % (x.trace(),))


def f4_rank(x: AlbertElement) -> int:
    """Rank stratum of a nonzero trace-free element (the three strata 1..3
    index the nontrivial orbits of the automorphism group on trace-free
    elements)."""
    _check_tracefree(x)
    return jordan_rank(x)


@dataclass
class Rank2Split:
    """Result of splitting a trace-free rank-2 element into rank-1 pieces.

    plus + minus = original, both pieces have rank 1, plus o minus = 0.
    disc is the rational d with all coordinates lying in Q(sqrt(d));
    field_degree is 1 when sqrt(d) is rational (pieces stay rational).
    """
    plus: AlbertElement
    minus: AlbertElement
    disc: Q
    field_degree: int


def rank2_split(x: AlbertElement) -> Rank2Split:
    """Split a trace-free rank-2 element as a sum of two rank-1 elements.

    The element satisfies a reduced quadratic: with S = Tr(x#) (negative for
    trace-free rank 2 over Q), the eigenvalue pair is +-sqrt(d), d = -S, and
    the two spectral pieces (x o x +- sqrt(d) x) / (2 sqrt(d)) are rank 1.
    They are P +- sqrt(d) Q with the rational elements P = x/2 and
    Q = (x o x)/(2d), so the split is computed on two integer elements,
    X = den x (den clearing the denominators of x) and Y = X o X.  With
    d = dn/dd, both pieces have rank 1 iff dn den^2 X# + dd Y# = 0 and
    X x Y = 0, and they are orthogonal iff dn den^2 (X o X) = dd (Y o Y);
    these postconditions are rechecked, and so are that the pieces are
    nonzero and that they resum to x.  The pieces' coordinates lie in
    Q(sqrt(d)): QuadExt numbers, built once for the output, or plain
    rationals when d is a square.
    """
    for co in x.coords():
        if not isinstance(co, (int, Q)):
            raise ValueError("rank2_split needs rational coordinates")
    _check_tracefree(x)
    whole, den = x._cleared()
    sharp = whole.adjugate()
    if sharp.is_zero() or whole.det3() != 0:
        raise ValueError("rank2_split needs a trace-free element of rank 2")
    d = Q(-sharp.trace(), den * den)
    if d <= 0:
        raise ValueError("degenerate quadratic invariant %s" % (-d,))
    dn, dd = d.numerator, d.denominator
    sq = whole.jordan(whole)
    sq_sharp = sq.adjugate()
    s = dn * den * den
    if (not (sharp.scale(s) + sq_sharp.scale(dd)).is_zero()
            or not ((whole + sq).adjugate() - sharp - sq_sharp).is_zero()):
        raise AssertionError("rank-2 split produced pieces of wrong rank")
    if sq.scale(s) != sq.jordan(sq).scale(dd):
        raise AssertionError("rank-2 split pieces are not orthogonal")
    # plus/minus coordinate i is (dn den X_i +- dd Y_i sqrt(d)) / (2 dn den^2)
    m = 2 * s
    pairs = [(dn * den * p, dd * q) for p, q in zip(whole.coords(), sq.coords())]
    mu = rational_sqrt(d)
    if mu is None:
        field = QuadExt(0, 1, d)
        plus = [field._new(p, q, m) for p, q in pairs]
        minus = [field._new(p, -q, m) for p, q in pairs]
    else:
        mn, md = mu.numerator, mu.denominator
        plus = [_div(md * p + mn * q, md * m) for p, q in pairs]
        minus = [_div(md * p - mn * q, md * m) for p, q in pairs]
    plus = AlbertElement.from_coords(plus, lines=x.lines)
    minus = AlbertElement.from_coords(minus, lines=x.lines)
    if plus.is_zero() or minus.is_zero():
        raise AssertionError("rank-2 split produced pieces of wrong rank")
    if plus + minus != x:
        raise AssertionError("rank-2 split does not resum")
    return Rank2Split(plus=plus, minus=minus, disc=d,
                      field_degree=1 if mu is not None else 2)


@dataclass
class Rank3Split:
    """Result of peeling a rank-1 piece off a full-rank element.

    piece + residual = original, piece has rank 1, residual has det3 = 0
    (rank at most 2).  attempts records how many rank-1 directions were
    sampled before a transversal one appeared.
    """
    piece: AlbertElement
    residual: AlbertElement
    attempts: int


def rank1_from_chart(a, y, z, lines=FANO_LINES) -> AlbertElement:
    """Rank-1 element with prescribed first diagonal entry a != 0 and
    octonion slots y, z; the remaining slots are forced by rank-1 identities:
    b = N(z)/a, c = N(y)/a, x = conj(z) conj(y) / a."""
    a = _coerce_num(a)
    if a == 0:
        raise ValueError("chart needs a nonzero leading diagonal entry")
    y = _coerce_oct(y)
    z = _coerce_oct(z)
    b = _div(oct_norm(z), a)
    c = _div(oct_norm(y), a)
    x = oct_scale(oct_mul(oct_conj(z), oct_conj(y), lines), _div(1, a))
    out = AlbertElement(a, b, c, x, y, z, lines=lines)
    if jordan_rank(out) != 1:
        raise AssertionError("chart element is not rank 1")
    return out


def rank3_split(x: AlbertElement, rng=None, budget: int = 64) -> Rank3Split:
    """Peel a rank-1 summand off a full-rank element.

    Samples rank-1 directions v until the pairing <x#, v> is nonzero; then
    det3(x - t v) is linear in t (the quadratic and cubic terms vanish since
    v# = 0), so t* = det3(x) / <x#, v> kills the determinant exactly and
    x = t* v + (x - t* v) with a rank-1 piece and a rank <= 2 residual.
    x# and det3(x) are taken once, on X = den x, and the postconditions are
    checked on the integer multiples V = vden v of the piece and
    R = <X#, V> X - det3(X) V of the residual.
    """
    whole, den = x._cleared()
    sharp = whole.adjugate()
    det = whole.det3()
    if det == 0:
        raise ValueError("rank3_split needs a full-rank element (det3 != 0)")
    if rng is None:
        rng = random.Random(0)
    for attempt in range(1, budget + 1):
        a0 = rng.randint(1, 5) * (1 if rng.random() < 0.5 else -1)
        yo = tuple(rng.randint(-3, 3) for _ in range(8))
        zo = tuple(rng.randint(-3, 3) for _ in range(8))
        v = rank1_from_chart(a0, yo, zo, lines=x.lines)
        vwhole, vden = v._cleared()
        pair = sharp.inner(vwhole)
        if pair == 0:
            continue
        # piece = t* v and residual = x - t* v are these over den * <X#, V>
        whole_part, piece_part = whole.scale(pair), vwhole.scale(det)
        residual = whole_part - piece_part
        if residual.det3() != 0:
            raise AssertionError("residual determinant did not vanish")
        if vwhole.is_zero() or not vwhole.adjugate().is_zero():
            raise AssertionError("peeled piece is not rank 1")
        if piece_part + residual != whole_part:
            raise AssertionError("rank-3 split does not resum")
        q = den * pair
        piece, residual = (
            AlbertElement.from_coords([_div(c, q) for c in part.coords()],
                                      lines=x.lines)
            for part in (piece_part, residual))
        return Rank3Split(piece=piece, residual=residual, attempts=attempt)
    raise ValueError("no transversal rank-1 direction found in %d samples" % budget)


# ---------------------------------------------------------------------------
# Random sampling helpers (exact, seeded)
# ---------------------------------------------------------------------------

def random_albert(rng, bound: int = 9, lines=FANO_LINES) -> AlbertElement:
    """Uniform random integer coordinates in [-bound, bound]."""
    return AlbertElement.from_coords(
        [rng.randint(-bound, bound) for _ in range(27)], lines=lines)


def random_tracefree(rng, bound: int = 9, lines=FANO_LINES) -> AlbertElement:
    co = [rng.randint(-bound, bound) for _ in range(27)]
    co[2] = -co[0] - co[1]
    return AlbertElement.from_coords(co, lines=lines)


def random_rank1(rng, bound: int = 6, lines=FANO_LINES) -> AlbertElement:
    """Random rank-1 element via the chart with nonzero leading entry."""
    while True:
        a0 = rng.randint(-bound, bound)
        if a0 == 0:
            continue
        yo = tuple(rng.randint(-bound, bound) for _ in range(8))
        zo = tuple(rng.randint(-bound, bound) for _ in range(8))
        return rank1_from_chart(a0, yo, zo, lines=lines)


def random_rank2_tracefree(rng, bound: int = 4, lines=FANO_LINES) -> AlbertElement:
    """Random trace-free rank-2 element: a trace-balanced combination of two
    rank-1 elements (rank-1 elements over Q always have nonzero trace, since
    the norm form is positive definite)."""
    while True:
        p1 = random_rank1(rng, bound, lines)
        p2 = random_rank1(rng, bound, lines)
        cand = p1.scale(p2.trace()) - p2.scale(p1.trace())
        if not cand.is_zero() and jordan_rank(cand) == 2:
            return cand


# ---------------------------------------------------------------------------
# Derivation algebra
# ---------------------------------------------------------------------------

_DERIV_CACHE: dict = {}

#: Diagonal Gram of the trace form in flat coordinates (a, b, c, x, y, z).
TRACE_GRAM_DIAG = (1, 1, 1) + (2,) * 24


def _imatmul(a, b):
    """Integer matrix product exploiting sparsity of both factors."""
    n = len(a)
    bnz = [tuple((s, v) for s, v in enumerate(row) if v) for row in b]
    out = [[0] * n for _ in range(n)]
    for r in range(n):
        orow = out[r]
        for k, av in enumerate(a[r]):
            if av:
                for s, bv in bnz[k]:
                    orow[s] += av * bv
    return out


def f4_derivations(lines=FANO_LINES):
    """Integer-matrix basis of the 52-dimensional derivation algebra.

    Multiplication operators L_u (u over the 27 coordinate basis elements)
    are assembled exactly; each returned 27x27 integer matrix is 4 [L_u, L_v]
    for one basis pair, and the 52 selected commutators span all derivations.
    Every basis matrix kills the identity element and is skew for the trace
    form.  The result is cached per multiplication convention.
    """
    if lines in _DERIV_CACHE:
        return _DERIV_CACHE[lines]
    basis = [AlbertElement.basis_element(i, lines) for i in range(27)]
    prods = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            co = basis[i].jordan(basis[j]).coords()
            icol = []
            for q in co:
                q2 = 2 * q
                if q2.denominator != 1:
                    raise AssertionError("basis product has denominator > 2")
                icol.append(int(q2))
            prods[i][j] = icol
            prods[j][i] = icol
    # 2 L_i as integer matrices: row r, column j = (2 e_i o e_j)_r
    mats = []
    for i in range(27):
        mats.append([[prods[i][j][r] for j in range(27)] for r in range(27)])
    comms = []
    flat = []
    for i in range(27):
        for j in range(i + 1, 27):
            ab = _imatmul(mats[i], mats[j])
            ba = _imatmul(mats[j], mats[i])
            cm = [[p - q for p, q in zip(rp, rq)] for rp, rq in zip(ab, ba)]
            comms.append(cm)
            flat.append([e for row in cm for e in row])
    idx = int_row_basis(flat)
    if len(idx) != 52:
        raise AssertionError("derivation span has dimension %d, expected 52" % len(idx))
    out = [comms[k] for k in idx]
    _DERIV_CACHE[lines] = out
    return out


def apply_matrix(mat, elem: AlbertElement) -> AlbertElement:
    """Apply a 27x27 coordinate matrix to an element."""
    co = elem.coords()
    out = []
    for row in mat:
        s = 0
        for m, v in zip(row, co):
            if m:
                s = s + m * v
        out.append(s)
    return AlbertElement.from_coords(out, lines=elem.lines)


# ---------------------------------------------------------------------------
# Mod-p witness search
# ---------------------------------------------------------------------------

#: caps of f4_pi2_witness_search: the prime, and prime x budget, the number
#: of quartic evaluations its root scan may make
F4_PRIME_CAP = 2 * 10 ** 6
F4_SEARCH_CAP = 2 * 10 ** 6


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _isotropic_octonion_modp(p: int):
    """Deterministic nonzero octonion over F_p with zero norm, returned as
    an 8-tuple of small nonnegative ints.  a^2 + b^2 = 0 with a != 0 needs
    -1 to be a square, so for p = 3 (mod 4) the search starts at three
    coordinates."""
    for b in range(p if p % 4 == 1 else 0):
        for a in range(1, p):
            if (a * a + b * b) % p == 0:
                return (a, b, 0, 0, 0, 0, 0, 0)
    for c in range(1, p):
        for b in range(p):
            for a in range(1, p):
                if (a * a + b * b + c * c) % p == 0:
                    return (a, b, c, 0, 0, 0, 0, 0)
    raise AssertionError("no isotropic octonion found mod %d" % p)


def _matvec_modp(mat, vec, p):
    return [sum(m * v for m, v in zip(row, vec) if m) % p for row in mat]


def _bil_modp(u, v, p):
    s = 0
    for a, b, g in zip(u, v, TRACE_GRAM_DIAG):
        s += a * b * g
    return s % p


def _skew_outer(u, v, p):
    """27x27 matrix of the two-form u wedge v, reduced mod p."""
    return [[(u[i] * v[j] - v[i] * u[j]) % p for j in range(27)] for i in range(27)]


def _mat_add_modp(a, b, p):
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _skew_stats_modp(w, p):
    """(dim Im, rank of restricted trace form) for a skew coordinate matrix."""
    cols = [list(col) for col in zip(*w)]
    red, piv = modp_row_reduce(cols, p)
    basis = red[:len(piv)]
    dim_im = len(basis)
    gram = [[_bil_modp(u, v, p) for v in basis] for u in basis]
    return (dim_im, modp_rank(gram, p) if dim_im else 0)


def _closed_orbit_cone_dim() -> int:
    """1 + dim of the flag variety for the second fundamental weight of the
    rank-4 exceptional type: counted as the positive roots whose expansion
    uses the second simple root, plus one for the cone direction."""
    rs = build_root_system(SimpleType("F", 4))
    moved = sum(1 for r in rs.positive_roots if rs.root_coeffs(r)[1] > 0)
    return moved + 1


@dataclass
class F4WitnessResult:
    """Outcome of the mod-p two-plane witness search.

    When found, (x_coords, y_coords) span a two-plane of isotropic, mutually
    orthogonal rank-1 trace-free elements whose wedge lies in the second
    fundamental representation (checked against all 52 derivation-basis
    pairings), and t_coeffs gives a derivation t (coefficients over the
    integer basis) with image statistics exactly (4, 1) for the deformed
    two-form x^y + tx^y + x^ty.  tangent_rank records the dimension of the
    derivation-orbit tangent span at x^y, which must match the closed-orbit
    cone dimension for the certificate to be meaningful.
    """
    prime: int
    seed: int
    budget: int
    found: bool
    x_coords: tuple | None = None
    y_coords: tuple | None = None
    t_coeffs: tuple | None = None
    root_param: int | None = None
    stats: tuple | None = None
    membership_ok: bool = False
    tangent_rank: int = -1
    expected_tangent_rank: int = -1
    line_trials: int = 0
    roots_tested: int = 0
    fail_reason: str | None = None

    def as_dict(self):
        return {
            "prime": self.prime,
            "seed": self.seed,
            "budget": self.budget,
            "found": self.found,
            "x_coords": list(self.x_coords) if self.x_coords else None,
            "y_coords": list(self.y_coords) if self.y_coords else None,
            "t_coeffs": list(self.t_coeffs) if self.t_coeffs else None,
            "root_param": self.root_param,
            "stats": list(self.stats) if self.stats else None,
            "membership_ok": self.membership_ok,
            "tangent_rank": self.tangent_rank,
            "expected_tangent_rank": self.expected_tangent_rank,
            "line_trials": self.line_trials,
            "roots_tested": self.roots_tested,
            "fail_reason": self.fail_reason,
        }


def _lagrange_quartic_modp(values, p):
    """Coefficients (degree 0..4) of the quartic through (m, values[m]),
    m = 0..4, over F_p."""
    coeffs = [0] * 5
    for m in range(5):
        num = [1]
        denom = 1
        for n in range(5):
            if n == m:
                continue
            # multiply num by (X - n)
            nxt = [0] * (len(num) + 1)
            for k, ck in enumerate(num):
                nxt[k] = (nxt[k] - ck * n) % p
                nxt[k + 1] = (nxt[k + 1] + ck) % p
            num = nxt
            denom = (denom * (m - n)) % p
        scale = (values[m] * pow(denom, -1, p)) % p
        for k, ck in enumerate(num):
            coeffs[k] = (coeffs[k] + ck * scale) % p
    return coeffs


def _poly_eval_modp(coeffs, t, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc


def f4_pi2_witness_search(prime: int = 101, seed: int = 0,
                          budget: int = 200, lines=FANO_LINES) -> F4WitnessResult:
    """Search mod p for the wildness witness two-plane with statistics (4, 1).

    Construction: an isotropic octonion u gives a rank-1 trace-free x in the
    third off-diagonal slot; a vector w with u w = 0 (a zero divisor partner,
    necessarily isotropic) gives a rank-1 trace-free y in the first
    off-diagonal slot.  The pair is isotropic, orthogonal, satisfies
    x cross y = 0, and its wedge pairs to zero with all 52 derivation-basis
    elements (membership in the second fundamental representation).  The search then scans pencils t1 + lambda t0 of
    derivations for roots of the quartic P = <tx,tx><ty,ty> - <tx,ty>^2; a
    root with nondegenerate four-dimensional image yields statistics (4, 1).

    Deterministic for fixed (prime, seed, budget).  Requires an odd prime
    greater than 50 so the mod-p geometry matches characteristic zero.
    Raises CapExceeded, before the primality test, for a prime above
    F4_PRIME_CAP or a prime x budget above F4_SEARCH_CAP: each trial scans
    every residue for roots.
    """
    if isinstance(prime, int) and prime > F4_PRIME_CAP:
        raise CapExceeded("prime %d exceeds the f4 search cap %d"
                          % (prime, F4_PRIME_CAP))
    if isinstance(prime, int) and prime * budget > F4_SEARCH_CAP:
        raise CapExceeded("prime x budget = %d exceeds the f4 search cap %d"
                          % (prime * budget, F4_SEARCH_CAP))
    if not isinstance(prime, int) or not _is_prime(prime):
        raise ValueError("prime must be a prime integer, got %r" % (prime,))
    if prime <= 50:
        raise ValueError("prime must exceed 50 (got %d)" % prime)
    p = prime
    result = F4WitnessResult(prime=p, seed=seed, budget=budget, found=False)

    # --- fixed two-plane from split octonion arithmetic mod p
    u = _isotropic_octonion_modp(p)
    units = [tuple(1 if k == j else 0 for k in range(8)) for j in range(8)]
    lmat = [[0] * 8 for _ in range(8)]
    for j in range(8):
        col = oct_mul(u, units[j], lines)
        for r in range(8):
            lmat[r][j] = int(col[r]) % p
    kernel = modp_nullspace(lmat, p)
    if len(kernel) != 4:
        result.fail_reason = "left-multiplication kernel has dimension %d" % len(kernel)
        return result

    derivs = f4_derivations(lines)
    dmods = [[[e % p for e in row] for row in d] for d in derivs]

    def coords_z_slot(oc):
        co = [0] * 27
        for i in range(8):
            co[19 + i] = oc[i] % p
        return co

    def coords_x_slot(oc):
        co = [0] * 27
        for i in range(8):
            co[3 + i] = oc[i] % p
        return co

    x0 = coords_z_slot(u)
    x0_elem = AlbertElement.from_coords(x0, lines=lines)
    if any(int(q) % p for q in x0_elem.adjugate().coords()):
        result.fail_reason = "x is not rank 1 mod p"
        return result

    candidates = [tuple(int(v) % p for v in k) for k in kernel]
    for i in range(len(kernel)):
        for j in range(i + 1, len(kernel)):
            candidates.append(tuple((a + b) % p for a, b in zip(candidates[i], candidates[j])))
    rng = random.Random(seed)
    for _ in range(16):
        co = [rng.randrange(p) for _ in range(len(kernel))]
        mix = tuple(sum(c * k[t] for c, k in zip(co, candidates[:len(kernel)])) % p
                    for t in range(8))
        candidates.append(mix)

    y0 = None
    y0_elem = None
    for w in candidates:
        if not any(w):
            continue
        if oct_norm(w) % p != 0:
            continue
        cand = coords_x_slot(w)
        cand_elem = AlbertElement.from_coords(cand, lines=lines)
        if any(int(q) % p for q in cand_elem.adjugate().coords()):
            continue
        if any(int(q) % p for q in x0_elem.cross(cand_elem).coords()):
            continue
        if _bil_modp(x0, cand, p) != 0:
            continue
        if all(_bil_modp(_matvec_modp(d, x0, p), cand, p) == 0 for d in dmods):
            y0 = cand
            y0_elem = cand_elem
            break
    if y0 is None:
        result.fail_reason = "no kernel vector passed the membership checks"
        return result

    result.x_coords = tuple(x0)
    result.y_coords = tuple(y0)
    result.membership_ok = True

    # --- tangent dimension of the derivation orbit at the base two-form
    tangent_rows = []
    for d in dmods:
        xd = _matvec_modp(d, x0, p)
        yd = _matvec_modp(d, y0, p)
        v = _mat_add_modp(_skew_outer(xd, y0, p), _skew_outer(x0, yd, p), p)
        tangent_rows.append([e for row in v for e in row])
    result.tangent_rank = modp_rank(tangent_rows, p)
    result.expected_tangent_rank = _closed_orbit_cone_dim()

    # --- pencil search for the degenerate deformation
    nder = len(dmods)

    def build_t(coeffs):
        t = [[0] * 27 for _ in range(27)]
        for c, d in zip(coeffs, dmods):
            if c == 0:
                continue
            for r in range(27):
                tr = t[r]
                dr = d[r]
                for s in range(27):
                    if dr[s]:
                        tr[s] = (tr[s] + c * dr[s]) % p
        return t

    def pencil_value(t1, t0, lam):
        t = [[(a + lam * b) % p for a, b in zip(ra, rb)] for ra, rb in zip(t1, t0)]
        xt = _matvec_modp(t, x0, p)
        yt = _matvec_modp(t, y0, p)
        av = _bil_modp(xt, xt, p)
        bv = _bil_modp(yt, yt, p)
        cv = _bil_modp(xt, yt, p)
        return t, xt, yt, av, bv, cv

    base_w = _skew_outer(x0, y0, p)
    for trial in range(1, budget + 1):
        result.line_trials = trial
        c1 = [rng.randrange(p) for _ in range(nder)]
        c0 = [rng.randrange(p) for _ in range(nder)]
        t1 = build_t(c1)
        t0 = build_t(c0)
        samples = []
        for m in range(5):
            _, _, _, av, bv, cv = pencil_value(t1, t0, m)
            samples.append((av * bv - cv * cv) % p)
        coeffs = _lagrange_quartic_modp(samples, p)
        if all(c == 0 for c in coeffs):
            continue
        for lam in range(p):
            if _poly_eval_modp(coeffs, lam, p) != 0:
                continue
            result.roots_tested += 1
            t, xt, yt, av, bv, cv = pencil_value(t1, t0, lam)
            if av == 0 and bv == 0 and cv == 0:
                continue
            span = [x0, y0, xt, yt]
            if modp_rank(span, p) != 4:
                continue
            w = _mat_add_modp(base_w, _skew_outer(xt, y0, p), p)
            w = _mat_add_modp(w, _skew_outer(x0, yt, p), p)
            stats = _skew_stats_modp(w, p)
            if stats != (4, 1):
                continue
            result.found = True
            result.t_coeffs = tuple((a + lam * b) % p for a, b in zip(c1, c0))
            result.root_param = lam
            result.stats = stats
            return result
    result.fail_reason = "budget exhausted without a (4, 1) root"
    return result


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def albert_to_json(x: AlbertElement) -> dict:
    """JSON object with 27 rational coordinates as exact 'p/q' strings,
    ordered a, b, c, x0..x7, y0..y7, z0..z7."""
    co = x.coords()
    for v in co:
        if not isinstance(v, (int, Q)):
            raise ValueError("cannot serialize coordinates outside the rationals")
    return {"shape": "jordan", "dims": [27], "coords": [str(v) for v in co]}


def albert_from_json(obj) -> AlbertElement:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object for a Jordan element")
    if obj.get("shape") != "jordan":
        raise ValueError("expected shape 'jordan', got %r" % (obj.get("shape"),))
    coords = obj.get("coords")
    if not isinstance(coords, list) or len(coords) != 27:
        raise ValueError("jordan element needs exactly 27 coords")
    return AlbertElement.from_coords(exact_rationals(coords))
