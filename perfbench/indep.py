"""Independent reference mathematics for the benchmark's correctness checks.

Nothing here imports secant: the closed forms and the small eliminations are
written from their textbook definitions, so a check that compares the program
against them compares two separate computations.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

#: A prime near 2**61; a rank mod LARGE_PRIME is a lower bound of the rank
#: over Q of an integer matrix.
LARGE_PRIME = (1 << 61) - 1


def matrix_rank_count(q: int, m: int, n: int, r: int) -> int:
    """Number of m x n matrices of rank r over F_q:
    prod_{i<r} (q^m - q^i)(q^n - q^i) / (q^r - q^i)."""
    num = den = 1
    for i in range(r):
        num *= (q ** m - q ** i) * (q ** n - q ** i)
        den *= q ** r - q ** i
    return num // den


def matrix_layer_counts(q: int, m: int, n: int) -> dict:
    """Rank layer sizes of all m x n matrices over F_q."""
    return {r: matrix_rank_count(q, m, n, r) for r in range(min(m, n) + 1)}


def split_quadric_isotropic(q: int, n: int) -> int:
    """Nonzero isotropic vectors of the split quadric in even dimension
    n = 2k over F_q (q odd): q^(2k-1) + q^k - q^(k-1) - 1."""
    if n % 2:
        raise ValueError("the closed form here is for even dimension")
    k = n // 2
    return q ** (2 * k - 1) + q ** k - q ** (k - 1) - 1


def quadric_layer_counts(q: int, n: int) -> dict:
    """Rank layers of the split quadric cone in even dimension n >= 4:
    zero, the isotropic vectors, and every other vector as a sum of two."""
    iso = split_quadric_isotropic(q, n)
    return {0: 1, 1: iso, 2: q ** n - 1 - iso}


def split_form_value(vec, p: int) -> int:
    """Split quadratic form sum_i v[2i] v[2i+1] on an even-dimensional
    vector, reduced mod p."""
    return sum(vec[2 * i] * vec[2 * i + 1] for i in range(len(vec) // 2)) % p


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


_TRIPLES6 = list(itertools.combinations(range(6), 3))
_QUADS6 = list(itertools.combinations(range(6), 4))


def wedge3_f2_code(rows) -> int:
    """Code of x ^ y ^ z over F_2 for three rows of F_2^6: bit i is the 3x3
    minor on the i-th lexicographic triple of columns (Pluecker
    coordinates, little-endian)."""
    x, y, z = rows
    code = 0
    for i, (a, b, c) in enumerate(_TRIPLES6):
        det = (x[a] * (y[b] * z[c] - y[c] * z[b])
               - x[b] * (y[a] * z[c] - y[c] * z[a])
               + x[c] * (y[a] * z[b] - y[b] * z[a]))
        code |= (det % 2) << i
    return code


def wedge3_f2_planes() -> set:
    """Codes of the decomposable 3-vectors of F_2^6: the wedges of every
    three distinct nonzero rows (dependent rows give 0)."""
    out = set()
    for rows in itertools.combinations(range(1, 64), 3):
        out.add(wedge3_f2_code([[(r >> c) & 1 for c in range(6)]
                                for r in rows]))
    out.discard(0)
    return out


def digits(code: int, p: int, d: int) -> list:
    """Little-endian base-p digits of a vector code."""
    out = []
    for _ in range(d):
        code, r = divmod(code, p)
        out.append(r)
    return out


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over F_p by plain Gaussian elimination."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        prow = [v * inv % p for v in mat[rank]]
        mat[rank] = prow
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def column_basis(rows):
    """Indices of a maximal independent set of columns of a rational
    matrix (pivot columns of its echelon form)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return pivots


def frac_rank(rows) -> int:
    return len(column_basis(rows)) if rows else 0


def clear_denominators(rows):
    """Integer matrix with each row scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        den = 1
        for v in row:
            d = Fraction(v).denominator
            den = den * d // math.gcd(den, d)
        out.append([int(Fraction(v) * den) for v in row])
    return out


def bit_length(v) -> int:
    """Largest bit length of the numerator or denominator of an exact
    scalar: an int, a Fraction, or any value exposing rational parts
    ``a`` and ``b`` (a quadratic-extension element)."""
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    parts = [getattr(v, name) for name in ("a", "b", "d") if hasattr(v, name)]
    return max((bit_length(Fraction(x)) for x in parts), default=0)
