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

All arithmetic is exact.  Coordinates are int first, in the normal form of
`secant.linalg._exact_scalar`: a coordinate stays a Python int until a true
division forces a Fraction, and a Fraction that comes back to denominator
1 is stored as an int again; an octonion whose coordinates are all ints is
kept as it is.  Octonions multiply by one table, `FANO_LINES`, through
one straight-line function generated from it at import.  Rank-2 splits
that need sqrt(d) use QuadExt, which keeps integer numerators over one
common denominator.  Floats are rejected.  The mod-p witness search works
on machine integers mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache

from .linalg import (
    QuadExt,
    _exact_div,
    _exact_scalar,
    _integer_row,
    int_row_basis,
    modp_nullspace,
    modp_rank,
    rational_sqrt,
)
from .rootsys import CapExceeded, SimpleType, build_root_system

__all__ = [
    "FANO_LINES",
    "AlbertElement",
    "Rank2Split",
    "Rank3Split",
    "F4WitnessResult",
    "oct_mul",
    "oct_conj",
    "oct_norm",
    "oct_dot",
    "jordan_rank",
    "rank2_split",
    "rank3_split",
    "rank1_from_chart",
    "f4_derivations",
    "f4_pi2_witness_search",
    "random_albert",
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
#: valid tables give isomorphic algebras, so every product uses this one.
FANO_LINES = ((1, 2, 3), (1, 4, 5), (1, 7, 6),
              (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))

ZERO_OCT = (0,) * 8


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


def _flat_table(lines):
    """The 64 products e_i e_j = sign * e_k as flat (i, j, k, sign) tuples."""
    tab = _mult_table(lines)
    return tuple((i, j) + tab[i][j] for i in range(8) for j in range(8))


def _oct_kernel(lines):
    """Straight-line octonion product for a multiplication table: each
    of the 8 output coordinates is one signed sum of 8 products over the
    unpacked coordinates u0..u7 and v0..v7.  The source is generated from
    the validated integer table `_flat_table(lines)` only, so every valid
    table, and no invalid one, gets a kernel."""
    sums = [[] for _ in range(8)]
    for i, j, k, s in _flat_table(lines):
        sums[k].append("%su%d*v%d" % ("+" if s > 0 else "-", i, j))
    src = "def kernel(u, v):\n    %s = u\n    %s = v\n    return (%s,)\n" % (
        ", ".join("u%d" % i for i in range(8)),
        ", ".join("v%d" % i for i in range(8)),
        ", ".join("".join(terms).lstrip("+") for terms in sums))
    namespace = {}
    exec(compile(src, "<octonion product %r>" % (lines,), "exec"), namespace)
    return namespace["kernel"]


_OCT_PRODUCT = _oct_kernel(FANO_LINES)


def _coerce_num(v):
    """Normal form of an exact scalar: `_exact_scalar` for rationals (an int,
    or a Fraction with denominator > 1; floats raise TypeError), and a
    QuadExt as it is."""
    t = type(v)
    if t is int or t is QuadExt:
        return v
    return _exact_scalar(v)


def _normal_oct(co):
    """The tuple co as it is when every coordinate is an int, else its
    coordinates in normal form."""
    for c in co:
        if type(c) is not int:
            return tuple(map(_coerce_num, co))
    return co


def _coerce_oct(v):
    if v is None:
        return ZERO_OCT
    co = tuple(v)
    if len(co) != 8:
        raise ValueError("octonion needs 8 coordinates, got %d" % len(co))
    return _normal_oct(co)


def oct_mul(u, v):
    """Product of two octonions given by 8-coordinate tuples."""
    return _normal_oct(_OCT_PRODUCT(u, v))


def oct_conj(u):
    u0, u1, u2, u3, u4, u5, u6, u7 = u
    return (u0, -u1, -u2, -u3, -u4, -u5, -u6, -u7)


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

    __slots__ = ("a", "b", "c", "x", "y", "z")

    def __init__(self, a=0, b=0, c=0, x=None, y=None, z=None):
        self.a = _coerce_num(a)
        self.b = _coerce_num(b)
        self.c = _coerce_num(c)
        self.x = _coerce_oct(x)
        self.y = _coerce_oct(y)
        self.z = _coerce_oct(z)

    # -- constructors

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def identity(cls):
        return cls(1, 1, 1)

    @classmethod
    def diag(cls, a, b, c):
        return cls(a, b, c)

    @classmethod
    def from_coords(cls, coords):
        co = list(coords)
        if len(co) != 27:
            raise ValueError("need 27 coordinates, got %d" % len(co))
        return cls(co[0], co[1], co[2], co[3:11], co[11:19], co[19:27])

    @classmethod
    def basis_element(cls, i):
        co = [0] * 27
        co[i] = 1
        return cls.from_coords(co)

    # -- plumbing

    def coords(self):
        """Flat coordinate list: a, b, c, x0..x7, y0..y7, z0..z7."""
        return [self.a, self.b, self.c, *self.x, *self.y, *self.z]

    def _check_compatible(self, other):
        if not isinstance(other, AlbertElement):
            raise TypeError("expected an AlbertElement")

    def __eq__(self, other):
        if not isinstance(other, AlbertElement):
            return NotImplemented
        return self.coords() == other.coords()

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
        return AlbertElement.from_coords(ints), den

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
            tuple(p + q for p, q in zip(self.z, other.z)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = _coerce_num(s)
        return AlbertElement(
            s * self.a, s * self.b, s * self.c,
            oct_scale(self.x, s), oct_scale(self.y, s), oct_scale(self.z, s))

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
        a1, b1, c1, x1, y1, z1 = self.a, self.b, self.c, self.x, self.y, self.z
        a2, b2, c2, x2, y2, z2 = other.a, other.b, other.c, other.x, other.y, other.z
        na = a1 * a2 + oct_dot(z1, z2) + oct_dot(y1, y2)
        nb = b1 * b2 + oct_dot(z1, z2) + oct_dot(x1, x2)
        nc = c1 * c2 + oct_dot(y1, y2) + oct_dot(x1, x2)
        tx = oct_mul(oct_conj(z1), oct_conj(y2))
        tx2 = oct_mul(oct_conj(z2), oct_conj(y1))
        nx = tuple(_exact_div(p + q + (b1 + c1) * r + (b2 + c2) * s, 2)
                   for p, q, r, s in zip(tx, tx2, x2, x1))
        ty = oct_mul(oct_conj(x1), oct_conj(z2))
        ty2 = oct_mul(oct_conj(x2), oct_conj(z1))
        ny = tuple(_exact_div(p + q + (a2 + c2) * r + (a1 + c1) * s, 2)
                   for p, q, r, s in zip(ty, ty2, self.y, other.y))
        tz = oct_mul(oct_conj(y1), oct_conj(x2))
        tz2 = oct_mul(oct_conj(y2), oct_conj(x1))
        nz = tuple(_exact_div(p + q + (a1 + b1) * r + (a2 + b2) * s, 2)
                   for p, q, r, s in zip(tz, tz2, z2, z1))
        return AlbertElement(na, nb, nc, nx, ny, nz)

    def det3(self):
        """Cubic norm: a b c - a N(x) - b N(y) - c N(z) + 2 Re((x y) z)."""
        whole, den = self._cleared()
        if den != 1:
            return _exact_div(whole.det3(), den ** 3)
        xy = oct_mul(self.x, self.y)
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
        na = self.b * self.c - oct_norm(self.x)
        nb = self.c * self.a - oct_norm(self.y)
        nc = self.a * self.b - oct_norm(self.z)
        nx = tuple(p - self.a * r for p, r in
                   zip(oct_mul(oct_conj(self.z), oct_conj(self.y)), self.x))
        ny = tuple(p - self.b * r for p, r in
                   zip(oct_mul(oct_conj(self.x), oct_conj(self.z)), self.y))
        nz = tuple(p - self.c * r for p, r in
                   zip(oct_mul(oct_conj(self.y), oct_conj(self.x)), self.z))
        return AlbertElement(na, nb, nc, nx, ny, nz)

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
        plus = [_exact_div(md * p + mn * q, md * m) for p, q in pairs]
        minus = [_exact_div(md * p - mn * q, md * m) for p, q in pairs]
    plus = AlbertElement.from_coords(plus)
    minus = AlbertElement.from_coords(minus)
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


def rank1_from_chart(a, y, z) -> AlbertElement:
    """Rank-1 element with prescribed first diagonal entry a != 0 and
    octonion slots y, z; the remaining slots are forced by rank-1 identities:
    b = N(z)/a, c = N(y)/a, x = conj(z) conj(y) / a."""
    a = _coerce_num(a)
    if a == 0:
        raise ValueError("chart needs a nonzero leading diagonal entry")
    y = _coerce_oct(y)
    z = _coerce_oct(z)
    b = _exact_div(oct_norm(z), a)
    c = _exact_div(oct_norm(y), a)
    x = oct_scale(oct_mul(oct_conj(z), oct_conj(y)), _exact_div(1, a))
    out = AlbertElement(a, b, c, x, y, z)
    if jordan_rank(out) != 1:
        raise AssertionError("chart element is not rank 1")
    return out


def rank3_split(x: AlbertElement, rng=None) -> Rank3Split:
    """Peel a rank-1 summand off a full-rank element.

    Samples up to 64 rank-1 directions v until the pairing <x#, v> is
    nonzero; then det3(x - t v) is linear in t (the quadratic and cubic
    terms vanish since v# = 0), so t* = det3(x) / <x#, v> kills the
    determinant exactly and x = t* v + (x - t* v) with a rank-1 piece and
    a rank <= 2 residual.
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
    for attempt in range(1, 65):
        a0 = rng.randint(1, 5) * (1 if rng.random() < 0.5 else -1)
        yo = tuple(rng.randint(-3, 3) for _ in range(8))
        zo = tuple(rng.randint(-3, 3) for _ in range(8))
        v = rank1_from_chart(a0, yo, zo)
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
            AlbertElement.from_coords([_exact_div(c, q) for c in part.coords()])
            for part in (piece_part, residual))
        return Rank3Split(piece=piece, residual=residual, attempts=attempt)
    raise ValueError("no transversal rank-1 direction found in 64 samples")


# ---------------------------------------------------------------------------
# Random sampling helpers (exact, seeded)
# ---------------------------------------------------------------------------

def random_albert(rng, bound: int = 9) -> AlbertElement:
    """Uniform random integer coordinates in [-bound, bound]."""
    return AlbertElement.from_coords(
        [rng.randint(-bound, bound) for _ in range(27)])


def random_rank1(rng, bound: int = 6) -> AlbertElement:
    """Random rank-1 element via the chart with nonzero leading entry."""
    while True:
        a0 = rng.randint(-bound, bound)
        if a0 == 0:
            continue
        yo = tuple(rng.randint(-bound, bound) for _ in range(8))
        zo = tuple(rng.randint(-bound, bound) for _ in range(8))
        return rank1_from_chart(a0, yo, zo)


def random_rank2_tracefree(rng, bound: int = 4) -> AlbertElement:
    """Random trace-free rank-2 element: a trace-balanced combination of two
    rank-1 elements (rank-1 elements over Q always have nonzero trace, since
    the norm form is positive definite)."""
    while True:
        p1 = random_rank1(rng, bound)
        p2 = random_rank1(rng, bound)
        cand = p1.scale(p2.trace()) - p2.scale(p1.trace())
        if not cand.is_zero() and jordan_rank(cand) == 2:
            return cand


# ---------------------------------------------------------------------------
# Derivation algebra
# ---------------------------------------------------------------------------

#: Diagonal Gram of the trace form in flat coordinates (a, b, c, x, y, z).
TRACE_GRAM_DIAG = (1, 1, 1) + (2,) * 24


@lru_cache(maxsize=None)
def f4_derivations():
    """Integer-matrix basis of the 52-dimensional derivation algebra.

    Multiplication operators L_u (u over the 27 coordinate basis elements)
    are assembled exactly; each returned 27x27 integer matrix is 4 [L_u, L_v]
    for one basis pair, and the 52 selected commutators span all derivations.
    Every basis matrix kills the identity element and is skew for the trace
    form.  The operators are sparse columns and each commutator a sparse
    row over the 729 entries; only the 52 selected ones are made dense.
    The result is computed once and cached.
    """
    basis = [AlbertElement.basis_element(i) for i in range(27)]
    # cols[i][j] = column j of 2 L_i = 2 e_i o e_j, as {row: entry}
    cols = [[None] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            col = {}
            for r, q in enumerate(basis[i].jordan(basis[j]).coords()):
                if q:
                    q2 = 2 * q
                    if q2.denominator != 1:
                        raise AssertionError("basis product has denominator > 2")
                    col[r] = int(q2)
            cols[i][j] = cols[j][i] = col

    def add_product(out, a, b, sign):
        # out += sign * (a b), flat entry 27 r + s for row r, column s
        for s, bcol in enumerate(b):
            for k, bv in bcol.items():
                for r, av in a[k].items():
                    key = 27 * r + s
                    out[key] = out.get(key, 0) + sign * av * bv

    comms = []
    for i in range(27):
        for j in range(i + 1, 27):
            cm: dict = {}
            add_product(cm, cols[i], cols[j], 1)
            add_product(cm, cols[j], cols[i], -1)
            comms.append(cm)
    idx = int_row_basis(comms)
    if len(idx) != 52:
        raise AssertionError("derivation span has dimension %d, expected 52" % len(idx))
    return [[[comms[k].get(27 * r + s, 0) for s in range(27)] for r in range(27)]
            for k in idx]


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


def _closed_orbit_cone_dim() -> int:
    """1 + dim of the flag variety for the second fundamental weight of the
    rank-4 exceptional type: counted as the positive roots whose expansion
    uses the second simple root, plus one for the cone direction."""
    rs = build_root_system(SimpleType("F", 4))
    moved = sum(1 for c in rs.positive_coeffs if c[1] > 0)
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


def _pencil_form_modp(u1, u0, v1, v0, p):
    """Coefficients (degree 0..2) of <u1 + lambda u0, v1 + lambda v0> over
    F_p, for the trace form."""
    return [_bil_modp(u1, v1, p), (_bil_modp(u1, v0, p) + _bil_modp(u0, v1, p)) % p,
            _bil_modp(u0, v0, p)]


def _poly_eval_modp(coeffs, t, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * t + c) % p
    return acc


def f4_pi2_witness_search(prime: int = 101, seed: int = 0,
                          budget: int = 200) -> F4WitnessResult:
    """Search mod p for the wildness witness two-plane with statistics (4, 1).

    Construction: an isotropic octonion u gives a rank-1 trace-free x in the
    third off-diagonal slot; a vector w with u w = 0 (a zero divisor partner,
    necessarily isotropic) gives a rank-1 trace-free y in the first
    off-diagonal slot.  The pair is isotropic, orthogonal, satisfies
    x cross y = 0, and its wedge pairs to zero with all 52 derivation-basis
    elements (membership in the second fundamental representation).  The
    search then scans pencils t = t1 + lambda t0 of derivations for roots of
    the quartic P = <tx,tx><ty,ty> - <tx,ty>^2; a root with nondegenerate
    four-dimensional image yields statistics (4, 1).

    A derivation enters only through its images of x and y, taken once for
    each basis derivation, so the search works on the vectors x, y, tx and
    ty: tx = t1 x + lambda t0 x makes each pairing a quadratic in lambda and
    P their product, and the statistics of x^y + tx^y + x^ty are read from
    the 4x4 Gram matrix of x, y, tx and ty.

    Deterministic for fixed (prime, seed, budget).  Requires an odd prime
    greater than 50 so the mod-p geometry matches characteristic zero, and
    a budget of at least one trial.  Raises CapExceeded, before the
    primality test, for a prime above F4_PRIME_CAP or a prime x budget
    above F4_SEARCH_CAP: each trial scans every residue for roots.
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
    if budget < 1:
        raise ValueError("budget must be at least 1, got %d" % budget)
    p = prime
    result = F4WitnessResult(prime=p, seed=seed, budget=budget, found=False)

    # --- fixed two-plane from split octonion arithmetic mod p
    u = _isotropic_octonion_modp(p)
    units = [tuple(1 if k == j else 0 for k in range(8)) for j in range(8)]
    lmat = [[0] * 8 for _ in range(8)]
    for j in range(8):
        col = oct_mul(u, units[j])
        for r in range(8):
            lmat[r][j] = int(col[r]) % p
    kernel = modp_nullspace(lmat, p)
    if len(kernel) != 4:
        result.fail_reason = "left-multiplication kernel has dimension %d" % len(kernel)
        return result

    derivs = f4_derivations()
    x0 = [0] * 19 + [c % p for c in u]  # u in the third off-diagonal slot
    x0_elem = AlbertElement.from_coords(x0)
    if any(int(q) % p for q in x0_elem.adjugate().coords()):
        result.fail_reason = "x is not rank 1 mod p"
        return result
    dx = [_matvec_modp(d, x0, p) for d in derivs]

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
    for w in candidates:
        if not any(w):
            continue
        if oct_norm(w) % p != 0:
            continue
        cand = [0] * 3 + [c % p for c in w] + [0] * 16  # w in the first slot
        cand_elem = AlbertElement.from_coords(cand)
        if any(int(q) % p for q in cand_elem.adjugate().coords()):
            continue
        if any(int(q) % p for q in x0_elem.cross(cand_elem).coords()):
            continue
        if _bil_modp(x0, cand, p) != 0:
            continue
        if all(_bil_modp(xd, cand, p) == 0 for xd in dx):
            y0 = cand
            break
    if y0 is None:
        result.fail_reason = "no kernel vector passed the membership checks"
        return result

    result.x_coords = tuple(x0)
    result.y_coords = tuple(y0)
    result.membership_ok = True
    dy = [_matvec_modp(d, y0, p) for d in derivs]

    # --- tangent dimension of the derivation orbit at the base two-form:
    # the i < j coordinates of dx^y + x^dy fix each skew form
    result.tangent_rank = modp_rank(
        [[(xd[i] * y0[j] - y0[i] * xd[j] + x0[i] * yd[j] - yd[i] * x0[j]) % p
          for i in range(27) for j in range(i + 1, 27)]
         for xd, yd in zip(dx, dy)], p)
    result.expected_tangent_rank = _closed_orbit_cone_dim()

    # --- pencil search for the degenerate deformation
    def image(coeffs, images):
        return [sum(c * v[r] for c, v in zip(coeffs, images)) % p
                for r in range(27)]

    for trial in range(1, budget + 1):
        result.line_trials = trial
        c1 = [rng.randrange(p) for _ in range(len(derivs))]
        c0 = [rng.randrange(p) for _ in range(len(derivs))]
        t1x, t0x, t1y, t0y = (image(c1, dx), image(c0, dx),
                              image(c1, dy), image(c0, dy))
        a = _pencil_form_modp(t1x, t0x, t1x, t0x, p)
        b = _pencil_form_modp(t1y, t0y, t1y, t0y, p)
        c = _pencil_form_modp(t1x, t0x, t1y, t0y, p)
        # coefficients (degree 0..4) of P = ab - c^2
        coeffs = [sum(a[i] * b[k - i] - c[i] * c[k - i]
                      for i in range(max(0, k - 2), min(k, 2) + 1)) % p
                  for k in range(5)]
        if not any(coeffs):
            continue
        for lam in range(p):
            if _poly_eval_modp(coeffs, lam, p) != 0:
                continue
            result.roots_tested += 1
            if not any(_poly_eval_modp(f, lam, p) for f in (a, b, c)):
                continue
            xt = [(v + lam * w) % p for v, w in zip(t1x, t0x)]
            yt = [(v + lam * w) % p for v, w in zip(t1y, t0y)]
            span = [x0, y0, xt, yt]
            if modp_rank(span, p) != 4:
                continue
            # x^y + tx^y + x^ty = V M V^T with V = [x + tx, y, x, ty] of rank
            # 4 and M invertible, so its image is span(V) and the statistics
            # are (4, rank of the Gram matrix), as in
            # chevalley.isotropic_pair_case
            stats = (4, modp_rank([[_bil_modp(v, w, p) for w in span]
                                   for v in span], p))
            if stats != (4, 1):
                continue
            result.found = True
            result.t_coeffs = tuple((v + lam * w) % p for v, w in zip(c1, c0))
            result.root_param = lam
            result.stats = stats
            return result
    result.fail_reason = "budget exhausted without a (4, 1) root"
    return result
