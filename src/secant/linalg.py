"""Exact linear algebra: rationals, integer fraction-free elimination, prime fields.

Everything here is exact.  Scalars follow one normal form, `_exact_scalar`:
int first, a Fraction only where a division forces one (`_exact_div`), and
a float is refused; `exact_rationals` reads JSON coordinates into it.
Rational matrices run on one fraction-free integer engine, `_bareiss` on
the denominator-cleared matrix: forward only in `rank` and `int_rank`, to
Gauss-Jordan form in `_int_inverse`, which returns integers over one
denominator.  `IntEchelon` keeps sparse integer rows with per-row gcd
normalization, for rows that arrive one at a time; prime-field routines
work on plain ints reduced mod p, and `modp_rank_batch` on numpy integer
arrays of many matrices at once.  The standard forms (`split_symmetric_form`,
`split_symplectic_form`, `mirror_symplectic_form`) are integer matrices
shared by every module.  No floats.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm


def _exact_scalar(v):
    """Normal form of an exact rational scalar: an int stays an int, a
    Fraction with denominator 1 becomes an int, other Fractions stay.  A
    float raises TypeError rather than turn into its binary approximation;
    anything else (an int subclass, a 'p/q' string, a Decimal) goes
    through int or Fraction."""
    t = type(v)
    if t is int:
        return v
    if t is Q:
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, float):
        raise TypeError("inexact float coordinate %r; use an int, a Fraction "
                        "or an exact string" % (v,))
    if isinstance(v, int):
        return int(v)
    return _exact_scalar(Q(v))


def _exact_div(n, d):
    """Exact quotient in the same normal form: int / int stays an int when
    d divides n and becomes a Fraction otherwise; every other combination
    divides in its own type."""
    if type(n) is int and type(d) is int:
        q, r = divmod(n, d)
        return Q(n, d) if r else q
    return n / d


def _is_decimal_int(s) -> bool:
    """True for an ASCII string of digits with an optional leading minus,
    the form in which the integers of a JSON coordinate file are written."""
    body = s[1:] if s[:1] == "-" else s
    return body.isascii() and body.isdigit()


#: Largest decimal exponent of a coordinate string, in absolute value: the
#: interpreter's default cap on the digits of an int string.
_EXPONENT_CAP = 4300


def _check_exponent(s: str) -> None:
    """ValueError on a decimal exponent past `_EXPONENT_CAP`, before
    Fraction builds its power of ten; Fraction reads any other string."""
    exp = s.lower().partition("e")[2]
    try:
        big = abs(int(exp)) > _EXPONENT_CAP
    except ValueError:  # no exponent, or a malformed one
        return
    if big:
        raise ValueError("decimal exponent %s is past %d"
                         % (exp.strip(), _EXPONENT_CAP))


def exact_rationals(raw) -> list:
    """JSON coordinates (ints or 'p/q' strings) in the normal form of
    `_exact_scalar`; ValueError on a float, which is inexact, on a boolean,
    which is not a number, and on a malformed string or a huge exponent.  A
    plain decimal integer string is parsed by int, anything else by
    Fraction."""
    out = []
    for s in raw:
        t = type(s)
        if t is int:
            out.append(s)
        elif t is str and _is_decimal_int(s):
            out.append(int(s))
        elif t is bool:
            raise ValueError("boolean coordinate %r is not a number" % (s,))
        elif isinstance(s, float):
            raise ValueError("inexact float coordinate %r; write it as a "
                             "'p/q' string" % (s,))
        else:
            try:
                if t is str:
                    _check_exponent(s)
                out.append(_exact_scalar(Q(s)))
            except (ValueError, ZeroDivisionError, TypeError) as exc:
                raise ValueError("bad rational coordinate: %s" % exc) from None
    return out


def _integer_row(values) -> tuple[list[int], int]:
    """(ints, den): den is the lcm of the denominators of the rational
    values (ints or Fractions) and ints[i] == values[i] * den."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _check_rectangular(rows) -> None:
    """ValueError unless every row has the length of the first."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix: rows of lengths %s"
                         % sorted({len(row) for row in rows}))


def _integer_matrix(mat) -> tuple[list[list[int]], int]:
    """(rows, den): den is the lcm of the denominators of all entries and
    rows[i][j] == mat[i][j] * den; ValueError on rows of unequal length.
    A matrix of ints comes back as fresh rows over den 1 at once."""
    mat = [list(row) for row in mat]
    _check_rectangular(mat)
    if all(type(x) is int for row in mat for x in row):
        return mat, 1
    flat, den = _integer_row(x for row in mat for x in row)
    it = iter(flat)
    return [[next(it) for _ in row] for row in mat], den


# ---------------------------------------------------------------------------
# fraction-free elimination
#
# One dense engine, `_bareiss`: Bareiss elimination in Z (Math. Comp. 22,
# 1968).  `_int_inverse` runs it as full Gauss-Jordan on an augmented
# matrix; `int_rank` and `rank` run it as forward elimination only and
# count pivots.


def _bareiss(rows: list[list[int]], full: bool) -> tuple[list[int], int]:
    """Eliminate the integer rows in place; returns (pivot columns, last
    pivot).

    With pivot piv at (r, c), every later row (and with `full`, every other
    row) becomes (piv * row_i - a_ic * row_r) // prev, prev the previous
    pivot.  Each division is exact, since every entry is then a minor of
    the matrix (Sylvester's identity).  With `full` the result is the
    reduced row echelon form times the last pivot; without, the rows below
    the pivot rows are zero.
    """
    pivots: list[int] = []
    if not rows:
        return pivots, 1
    nrows, ncols = len(rows), len(rows[0])
    prev = 1
    r = 0
    for c in range(ncols):
        found = next((i for i in range(r, nrows) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        ref = rows[r]
        piv = ref[c]
        for i in range(0 if full else r + 1, nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, ref)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, prev


def rank(mat) -> int:
    """Rank of a matrix of ints and Fractions: `int_rank` of its
    denominator-cleared multiple."""
    return int_rank(_integer_matrix(mat)[0])


def _int_inverse(mat) -> tuple[list[list[int]], int]:
    """(rows, den), integers with den > 0 and rows / den the inverse of a
    square rational matrix A / d: full `_bareiss` turns [A | d I] into
    last * [I | d A^-1].  ValueError on a singular or non-square one."""
    a, d = _integer_matrix(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix, got rows of "
                         "lengths %s for %d rows"
                         % (sorted({len(row) for row in a}), n))
    aug = [row + [d if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    pivots, last = _bareiss(aug, full=True)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    sign = -1 if last < 0 else 1
    return [[sign * x for x in row[n:]] for row in aug], sign * last


# ---------------------------------------------------------------------------
# standard forms


def split_symmetric_form(n: int):
    """Matrix of the split symmetric form on F^n.

    Basis ordering: hyperbolic pairs (a_1, b_1, .., a_m, b_m) with
    (a_i, b_i) = 1, followed by one unit vector if n is odd.
    """
    G = [[0] * n for _ in range(n)]
    m = n // 2
    for i in range(m):
        G[2 * i][2 * i + 1] = 1
        G[2 * i + 1][2 * i] = 1
    if n % 2:
        G[n - 1][n - 1] = 1
    return G


def split_symplectic_form(n: int):
    """Standard symplectic matrix on an even-dimensional space with
    interleaved hyperbolic pairs: J[2i][2i+1] = 1 = -J[2i+1][2i]."""
    if n % 2:
        raise ValueError("symplectic space needs even dimension, got %d" % n)
    j = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        j[i][i + 1] = 1
        j[i + 1][i] = -1
    return j


def mirror_symplectic_form(n: int):
    """Symplectic form pairing coordinate i with coordinate n-1-i (the
    convention of the witness element: first pairs with last)."""
    if n % 2:
        raise ValueError("even dimension required")
    f = [[0] * n for _ in range(n)]
    for i in range(n // 2):
        f[i][n - 1 - i] = 1
        f[n - 1 - i][i] = -1
    return f


# ---------------------------------------------------------------------------
# sparse integer elimination
#
# Incremental echelon form with dict-of-column sparse rows, for rows that
# arrive one at a time or are mostly zero (`int_row_basis`, the adjoint
# rows of `chevalley.orbit_dim`).  Each reduction step is a cross-
# multiplication (keeps everything in Z) followed by a gcd division, so
# entries stay small on the structured matrices we feed it.


class IntEchelon:
    """Incremental integer echelon basis; insert rows, read off the rank."""

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}  # lead column -> row

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Eliminate existing lead columns from `row`; returns the remainder."""
        while row:
            lead = min(row)
            ech = self.rows.get(lead)
            if ech is None:
                return row
            a, b = ech[lead], row[lead]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            new = {c: ca * v for c, v in row.items()}
            for c, v in ech.items():
                w = new.get(c, 0) - cb * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = new
        return row

    def insert(self, row) -> bool:
        """Insert a row (dict or iterable of ints); True iff it was independent."""
        if not isinstance(row, dict):
            row = {c: int(v) for c, v in enumerate(row) if v}
        else:
            row = {c: v for c, v in row.items() if v}
        row = self.reduce(row)
        if not row:
            return False
        g = 0
        for v in row.values():
            g = gcd(g, v)
        if g > 1:
            row = {c: v // g for c, v in row.items()}
        self.rows[min(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def int_rank(mat) -> int:
    """Rank of a matrix of Python ints.

    Rows given as iterables of ints, all of one length, go through forward
    Bareiss elimination (`_bareiss`), the dense engine of `rank`; a
    matrix with sparse dict rows {column: value} goes through `IntEchelon`.
    ValueError on ragged rows.
    """
    rows = list(mat)
    if any(isinstance(row, dict) for row in rows):
        return len(int_row_basis(rows))
    rows = [list(row) for row in rows]
    _check_rectangular(rows)
    return len(_bareiss(rows, full=False)[0])


def int_row_basis(mat) -> list[int]:
    """Indices of a maximal linearly independent subset of the rows, greedily."""
    ech = IntEchelon()
    out = []
    for i, row in enumerate(mat):
        if ech.insert(row):
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# prime fields


def modp_row_reduce(mat, p: int) -> tuple[list[list[int]], list[int]]:
    """RREF over F_p.  Returns (rows, pivot columns); input rows unchanged."""
    rows = [[x % p for x in row] for row in mat]
    pivots: list[int] = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                ref = rows[r]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], ref)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def modp_rank(mat, p: int) -> int:
    return len(modp_row_reduce(mat, p)[1])


#: Matrices per block of ``modp_rank_batch``, and codes per block of the
#: oracle's array kernels: 2^16 rows keep each buffer at a few MiB.
_BLOCK = 1 << 16


def modp_rank_batch(mats, p: int):
    """Ranks over F_p of the matrices of an (N, m, n) integer array, as an
    (N,) int64 array with the values of ``modp_rank``.

    All matrices of a block of ``_BLOCK`` are eliminated together, one
    column at a time along the shorter side: each takes as pivot its first
    row with a nonzero entry in the column, scales it to 1 and subtracts
    its multiples from every row, the pivot row included, which leaves the
    pivot row zero and so never a pivot again.  Entries stay in [0, p)
    between steps, so a step leaves them above -p**2 and adding p(p - 1)
    makes them nonnegative.  For p * p <= 2^15 they are int16, pivot
    inverses come from a table and each step's residues are read from the
    table of range(p * p) mod p (a lookup about four times faster than an
    int16 ``%``); a larger prime, below 2^31 so that every product fits,
    runs in int64 with ``%`` and takes a pivot's inverse as its (p - 2)-th
    power.
    """
    # imported here: numpy imported by this module, ahead of the other
    # secant modules, raised the resident memory after importing them all
    # by about 0.9 MiB (32.2 to 33.1 MiB)
    import numpy as np
    mats = np.asarray(mats)
    if mats.ndim != 3:
        raise ValueError("expected an (N, m, n) array, got shape %s"
                         % (mats.shape,))
    if p >= 1 << 31:
        raise ValueError("prime %d is too large for int64 elimination" % p)
    if mats.shape[1] < mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    count, nrows, ncols = mats.shape
    small = p * p <= 1 << 15
    if small:
        inverses = np.array([0] + [pow(x, -1, p) for x in range(1, p)],
                            dtype=np.int16)
        residues = (np.arange(p * p) % p).astype(np.int16)

    def reduce(x):
        if small:
            # in place: take reads an intp copy of the int16 indices
            np.take(residues, x, out=x, mode="clip")
        else:
            np.mod(x, p, out=x)

    def inverse(x):
        # the inverse of x, and 0 for 0: x ** (p - 2) mod p
        if small:
            return inverses[x]
        result, power, e = np.ones_like(x), x.copy(), p - 2
        while e:
            if e & 1:
                result = result * power % p
            power = power * power % p
            e >>= 1
        return result

    out = np.zeros(count, dtype=np.int64)
    for lo in range(0, count, _BLOCK):
        block = mats[lo:lo + _BLOCK]
        a = np.mod(block if small else block.astype(np.int64), p).astype(
            np.int16 if small else np.int64)
        which = np.arange(len(a))
        for c in range(ncols):
            # the pivot row scaled to 1; zero where the column has no pivot
            row = a[which, (a[:, :, c] != 0).argmax(axis=1)]
            out[lo:lo + _BLOCK] += row[:, c] != 0
            row *= inverse(row[:, c])[:, None]
            reduce(row)
            # earlier columns are zero in every row, the pivot row too, so
            # the whole contiguous array is updated
            a -= a[:, :, c, None] * row[:, None, :]
            a += p * (p - 1)
            reduce(a)
    return out


def modp_nullspace(mat, p: int) -> list[list[int]]:
    rows = [list(row) for row in mat]
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = modp_row_reduce(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# quadratic extensions Q(sqrt(d))


def rational_sqrt(x) -> Q | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = Q(x)
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Q(rn, rd)
    return None


class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)), d a fixed positive rational non-square.

    Stored as integer numerators over one common denominator,
    (x + y*sqrt(d)) / m with m > 0 and gcd(x, y, m) = 1, so arithmetic runs
    on ints and reduces once per result instead of building Fractions for
    each part.  The public parts a = x/m and b = y/m are Fractions; d is a
    Fraction.  Supports mixed arithmetic with ints and Fractions.  Used where
    a rank-2 element must be split into two rank-1 pieces: the splitting
    field is a real quadratic extension in general.
    """

    __slots__ = ("x", "y", "m", "d", "_dn", "_dd")

    def __init__(self, a, b=0, d=None):
        if d is None:
            raise ValueError("QuadExt needs the discriminant d")
        a, b, d = Q(a), Q(b), Q(d)
        m = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        # a.numerator, b.numerator and the lcm m already share no factor
        self.x = a.numerator * (m // a.denominator)
        self.y = b.numerator * (m // b.denominator)
        self.m = m
        self.d = d
        self._dn = d.numerator
        self._dd = d.denominator

    def _new(self, x, y, m):
        """Same-field element (x + y*sqrt(d)) / m, reduced; m must be nonzero."""
        if m < 0:
            x, y, m = -x, -y, -m
        g = gcd(x, y, m)
        if g > 1:
            x, y, m = x // g, y // g, m // g
        out = object.__new__(QuadExt)
        out.x, out.y, out.m = x, y, m
        out.d, out._dn, out._dd = self.d, self._dn, self._dd
        return out

    @property
    def a(self) -> Q:
        return Q(self.x, self.m)

    @property
    def b(self) -> Q:
        return Q(self.y, self.m)

    def _coerce(self, other):
        """(x, y, m) numerators of `other` in this field, or NotImplemented."""
        if isinstance(other, QuadExt):
            if other.d is not self.d and other.d != self.d:
                raise ValueError("mixed discriminants %s and %s" % (self.d, other.d))
            return other.x, other.y, other.m
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Q):
            return other.numerator, 0, other.denominator
        return NotImplemented

    def _plus(self, x2, y2, m2):
        m1 = self.m
        if m1 == m2:
            return self._new(self.x + x2, self.y + y2, m1)
        return self._new(self.x * m2 + x2 * m1, self.y * m2 + y2 * m1, m1 * m2)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self._plus(*o)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.x, -self.y, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        x2, y2, m2 = o
        return self._plus(-x2, -y2, m2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        x1, y1, m1 = self.x, self.y, self.m
        x2, y2, m2 = o
        if y2 == 0:
            return self._new(x1 * x2, y1 * x2, m1 * m2)
        dn, dd = self._dn, self._dd
        return self._new(dd * x1 * x2 + dn * y1 * y2,
                         dd * (x1 * y2 + y1 * x2), dd * m1 * m2)

    __rmul__ = __mul__

    def _inverse(self, x, y, m):
        """1 / ((x + y*sqrt(d)) / m) = m*dd*(x - y*sqrt(d)) / (dd*x^2 - dn*y^2)."""
        dn, dd = self._dn, self._dd
        n = dd * x * x - dn * y * y
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%s))" % self.d)
        return self._new(m * dd * x, -m * dd * y, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        x2, y2, m2 = o
        if y2 == 0:
            if x2 == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(%s))" % self.d)
            return self._new(self.x * m2, self.y * m2, self.m * x2)
        return self * self._inverse(x2, y2, m2)

    def __rtruediv__(self, other):
        if self._coerce(other) is NotImplemented:
            return NotImplemented
        return self._inverse(self.x, self.y, self.m) * other

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.y == 0 and self.m == 1 and self.x == other
        if isinstance(other, Q):
            return (self.y == 0 and self.x == other.numerator
                    and self.m == other.denominator)
        if isinstance(other, QuadExt):
            if other.d != self.d:
                return self.y == 0 and other.y == 0 and self.a == other.a
            return self.x == other.x and self.y == other.y and self.m == other.m
        return NotImplemented

    def __hash__(self):
        if self.y == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if self.y == 0:
            return "QuadExt(%s, d=%s)" % (self.a, self.d)
        return "QuadExt(%s + %s*sqrt(%s))" % (self.a, self.b, self.d)
