"""Finite-field exhaustive ground truth.

Enumerates the cone points of each supported point family over a small prime
field, computes exact additive rank tables by breadth-first layering over
sums, and tests structural claims desk-scale: parabolic-reduction rank
preservation under coordinate projection, tangent-vector second-secant
membership, and the three-factor lower-bound tensor.

Epistemic discipline: only field-robust statements are asserted (matrix and
skew normal forms, the lift inequality for alternating 3-tensors, projection
equality on matrix/skew families); everything else is reported with a label,
because finite-field ranks may differ from characteristic-0 border ranks.

Vector encoding: little-endian base-p packing — coordinate i of a code c is
(c // p**i) % p.  Projective representatives are the lexicographically
smallest scalar multiples of each point, so tables are canonical and
diffable.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction as Q

import numpy as np

from .linalg import modp_nullspace, modp_rank, modp_row_reduce
from .linalg import rank as q_rank
from .ranks import (
    EVEN_SUBSETS,
    WEDGE3_TRIPLES,
    purity_quadric_table,
    wedge3_c6_rank,
)
from .rootsys import CapExceeded

__all__ = [
    "AMBIENT_CAP",
    "PointSet",
    "RankTable",
    "LeviReport",
    "TangentReport",
    "parse_family",
    "family_dim",
    "enumerate_cone_points",
    "bfs_rank_table",
    "rank_table",
    "levi_projection_test",
    "tangent_probe",
    "tensor222_check",
    "wedge3_tr2_poly",
    "wedge3_tr2_values",
    "wedge3_f2_report",
    "mirror_symplectic_form",
    "f2_pure_spinor_set",
    "encode_vec",
    "decode_vec",
    "split_quadric_value",
    "SubspaceCodec",
    "TABLE_VERSION",
]

#: Hard cap on ambient vector count (p ** dim).
AMBIENT_CAP = 1 << 24

TABLE_VERSION = 2

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def parse_family(name: str) -> dict:
    """Parse a family tag into its kind and parameters.

    Supported: segre-MxN, segre-2x2x2, veronese2-N, gr2-N, gr3-6,
    lambda20-2N, lambda30-6, quadric-N, spinor10, sl3-adjoint.
    """
    if not isinstance(name, str):
        raise ValueError("family must be a string")
    if name == "segre-2x2x2":
        return {"kind": "segre3", "sizes": (2, 2, 2)}
    if name == "spinor10":
        return {"kind": "spinor10"}
    if name == "sl3-adjoint":
        return {"kind": "sl3adj"}
    if name == "gr3-6":
        return {"kind": "gr3", "n": 6}
    for prefix, kind in (("segre-", "segre"), ("veronese2-", "veronese2"),
                         ("gr2-", "gr2"), ("lambda20-", "lambda20"),
                         ("lambda30-", "lambda30"), ("quadric-", "quadric")):
        if name.startswith(prefix):
            rest = name[len(prefix):]
            if kind == "segre":
                parts = rest.split("x")
                if len(parts) == 2 and all(s.isdigit() for s in parts):
                    m, n = int(parts[0]), int(parts[1])
                    if m >= 2 and n >= 2:
                        return {"kind": "segre", "sizes": (m, n)}
                raise ValueError("bad segre family %r (expected segre-MxN)" % name)
            if not rest.isdigit():
                raise ValueError("bad family %r: %r is not a number" % (name, rest))
            n = int(rest)
            if kind == "lambda20":
                if n % 2 or n < 4:
                    raise ValueError("lambda20 needs an even dimension >= 4")
                return {"kind": "lambda20", "n": n}
            if kind == "lambda30":
                if n != 6:
                    raise ValueError("lambda30 is only supported in dimension 6")
                return {"kind": "lambda30", "n": 6}
            if n < 2:
                raise ValueError("family %r dimension too small" % name)
            return {"kind": kind, "n": n}
    raise ValueError("unknown family %r" % name)


def _wedge2_index(n):
    pairs = tuple(itertools.combinations(range(n), 2))
    return pairs, {pq: i for i, pq in enumerate(pairs)}


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


def _split_symmetric_modp(n, p):
    from .chevalley import split_symmetric_form
    return [[v % p for v in row] for row in split_symmetric_form(n)]


def split_quadric_value(v, p):
    """Halved split quadratic form: sum of products over hyperbolic pairs
    plus the square of the odd leftover coordinate.  Characteristic-safe:
    over F_2 the doubled Gram evaluation would vanish identically."""
    n = len(v)
    total = 0
    for i in range(n // 2):
        total += v[2 * i] * v[2 * i + 1]
    if n % 2:
        total += v[n - 1] * v[n - 1]
    return total % p


class SubspaceCodec:
    """Coordinates on the solution space of linear constraints mod p.

    Subspace coordinates are the free columns of the constraint rref, in
    increasing column order; pivot coordinates are recovered by substitution.
    """

    def __init__(self, constraints, p, nfull):
        self.p = p
        self.nfull = nfull
        rows = [[v % p for v in row] for row in constraints]
        rref, pivots = modp_row_reduce(rows, p)
        self.rref = rref[:len(pivots)]
        self.pivots = list(pivots)
        pivot_set = set(pivots)
        self.free = [c for c in range(nfull) if c not in pivot_set]
        self.dim = len(self.free)

    def to_sub(self, full):
        full = [v % self.p for v in full]
        for row, piv in zip(self.rref, self.pivots):
            if sum(r * v for r, v in zip(row, full)) % self.p:
                raise ValueError("vector violates the subspace constraints")
        return [full[c] for c in self.free]

    def to_full(self, sub):
        full = [0] * self.nfull
        for c, v in zip(self.free, sub):
            full[c] = v % self.p
        for row, piv in zip(self.rref, self.pivots):
            acc = sum(row[c] * full[c] for c in self.free) % self.p
            full[piv] = (-acc) % self.p
        return full


@dataclass
class PointSet:
    """Cone points of one family over F_p: canonical projective
    representatives, plus the data needed to expand scalar multiples."""
    family: str
    prime: int
    dim: int
    reps: tuple
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.reps)

    def cone_codes(self):
        """All nonzero scalar multiples of the representatives, encoded."""
        p, d = self.prime, self.dim
        out = set()
        for code in self.reps:
            vec = decode_vec(code, p, d)
            for c in range(1, p):
                out.add(encode_vec([c * v % p for v in vec], p))
        return np.array(sorted(out), dtype=np.int64)


def encode_vec(vec, p) -> int:
    code = 0
    for v in reversed(vec):
        code = code * p + (v % p)
    return code


def decode_vec(code, p, d):
    out = []
    for _ in range(d):
        code, r = divmod(code, p)
        out.append(r)
    if code:
        raise ValueError("code out of range for dimension %d" % d)
    return out


def _canonical_rep(vec, p):
    """Lexicographically smallest scalar multiple (little-endian digits)."""
    best = None
    for c in range(1, p):
        cand = tuple(c * v % p for v in vec)
        if best is None or cand < best:
            best = cand
    return best


def _proj_reps(n, p):
    """Projective representatives of F_p^n: first nonzero coordinate 1."""
    out = []
    for lead in range(n):
        tail = n - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            out.append((0,) * lead + (1,) + rest)
    return out


def _iter_subspaces(k, n, p):
    """All k-dimensional subspaces of F_p^n as rref basis matrices."""
    for pivots in itertools.combinations(range(n), k):
        free_cells = []
        for r in range(k):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_cells.append((r, c))
        for fill in itertools.product(range(p), repeat=len(free_cells)):
            mat = [[0] * n for _ in range(k)]
            for r in range(k):
                mat[r][pivots[r]] = 1
            for (r, c), v in zip(free_cells, fill):
                mat[r][c] = v
            yield mat


def family_dim(name: str) -> int:
    """Ambient coordinate dimension of a family."""
    fam = parse_family(name)
    kind = fam["kind"]
    if kind == "segre":
        m, n = fam["sizes"]
        return m * n
    if kind == "segre3":
        return 8
    if kind == "veronese2":
        n = fam["n"]
        return n * (n + 1) // 2
    if kind == "gr2":
        n = fam["n"]
        return n * (n - 1) // 2
    if kind == "gr3":
        return 20
    if kind == "lambda20":
        n = fam["n"]
        return n * (n - 1) // 2 - 1
    if kind == "lambda30":
        return 14
    if kind == "quadric":
        return fam["n"]
    if kind == "spinor10":
        return 16
    if kind == "sl3adj":
        return 8
    raise AssertionError(kind)


def _check_cap(p, d):
    if p ** d > AMBIENT_CAP:
        raise CapExceeded(
            "family instance has %d^%d ambient vectors, over the %d cap"
            % (p, d, AMBIENT_CAP))


def _lambda20_codec(n, p):
    pairs, pidx = _wedge2_index(n)
    form = mirror_symplectic_form(n)
    row = [0] * len(pairs)
    for (i, j), t in pidx.items():
        row[t] = form[i][j] % p
    return SubspaceCodec([row], p, len(pairs)), pairs, pidx, form


def _lambda30_codec(p):
    form = mirror_symplectic_form(6)
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    rows = [[0] * 20 for _ in range(6)]
    for (a, b, c), t in tidx.items():
        rows[c][t] = (rows[c][t] + form[a][b]) % p
        rows[b][t] = (rows[b][t] - form[a][c]) % p
        rows[a][t] = (rows[a][t] + form[b][c]) % p
    return SubspaceCodec(rows, p, 20), tidx, form


def _wedge_of_rows(rows, n, pairs, p):
    x, y = rows
    return [(x[i] * y[j] - x[j] * y[i]) % p for (i, j) in pairs]


def _wedge3_of_rows(rows, p):
    x, y, z = rows
    out = []
    for (a, b, c) in WEDGE3_TRIPLES:
        det = (x[a] * (y[b] * z[c] - y[c] * z[b])
               - x[b] * (y[a] * z[c] - y[c] * z[a])
               + x[c] * (y[a] * z[b] - y[b] * z[a]))
        out.append(det % p)
    return out


def _plucker2_ok(w, n, pidx, p):
    """Halved Plücker quadrics for a 2-vector: w_ij w_kl - w_ik w_jl +
    w_il w_jk = 0 for all quadruples (characteristic-safe)."""
    def get(i, j):
        return w[pidx[(i, j)]]
    for (i, j, k, l) in itertools.combinations(range(n), 4):
        if (get(i, j) * get(k, l) - get(i, k) * get(j, l)
                + get(i, l) * get(j, k)) % p:
            return False
    return True


def _wedge3_divisors_modp(co, p):
    """Dimension of {v : v wedge psi = 0} over F_p, psi in 20 coords."""
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    rows = []
    for quad in itertools.combinations(range(6), 4):
        row = []
        for i in range(6):
            if i not in quad:
                row.append(0)
                continue
            rest = tuple(x for x in quad if x != i)
            pos = quad.index(i)
            row.append(((-1) ** pos * co[tidx[rest]]) % p)
        rows.append(row)
    return len(modp_nullspace(rows, p))


def _spinor_quadrics_modp(p):
    table = purity_quadric_table()
    return [{k: c % p for k, c in quad.items()} for quad in table]


def f2_pure_spinor_set():
    """Pure even spinors over F_2, enumerated constructively: the
    exponential parametrization over the vacuum plus closure under the
    double Clifford flips e_I -> e_{I xor {i,j}} (products of two unit
    reflections, preserving the even half and the purity cone)."""
    n = 5
    sub_index = {frozenset(s): i for i, s in enumerate(EVEN_SUBSETS)}
    # exponential cell: coords 1, w_ij, pfaffian of 4x4 minors (mod 2)
    cell = set()
    pair_list = tuple(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pair_list)):
        w = {}
        for t, pq in enumerate(pair_list):
            w[pq] = (bits >> t) & 1
        code = 1  # coefficient 1 on the empty subset
        for pq in pair_list:
            if w[pq]:
                code |= 1 << sub_index[frozenset(pq)]
        for quad in itertools.combinations(range(n), 4):
            a, b, c, d = quad
            pf = (w[(a, b)] * w[(c, d)] ^ w[(a, c)] * w[(b, d)]
                  ^ w[(a, d)] * w[(b, c)])
            if pf & 1:
                code |= 1 << sub_index[frozenset(quad)]
        cell.add(code)
    # double flips act on basis labels: I -> I xor {i, j}
    perms = []
    for i, j in itertools.combinations(range(n), 2):
        perm = [0] * 16
        for idx, s in enumerate(EVEN_SUBSETS):
            target = frozenset(s) ^ {i, j}
            perm[idx] = sub_index[target]
        perms.append(perm)
    frontier = set(cell)
    seen = set(cell)
    while frontier:
        nxt = set()
        for code in frontier:
            for perm in perms:
                out = 0
                for idx in range(16):
                    if (code >> idx) & 1:
                        out |= 1 << perm[idx]
                if out not in seen:
                    seen.add(out)
                    nxt.add(out)
        frontier = nxt
    return seen


def enumerate_cone_points(family: str, p: int) -> PointSet:
    """Enumerate canonical projective representatives of a family's cone
    over F_p and check the defining equations on every point."""
    if p not in _SMALL_PRIMES:
        raise ValueError("prime %r not supported (need a prime <= 13)" % p)
    fam = parse_family(family)
    kind = fam["kind"]
    d = family_dim(family)
    _check_cap(p, d)
    reps = set()
    meta = {}

    if kind == "segre":
        m, n = fam["sizes"]
        for u in _proj_reps(m, p):
            for v in _proj_reps(n, p):
                flat = [u[i] * v[j] % p for i in range(m) for j in range(n)]
                reps.add(_canonical_rep(flat, p))
        for rep in reps:
            mat = [list(rep[i * n:(i + 1) * n]) for i in range(m)]
            assert modp_rank(mat, p) == 1, "segre point is not rank 1"

    elif kind == "segre3":
        for u in _proj_reps(2, p):
            for v in _proj_reps(2, p):
                for w in _proj_reps(2, p):
                    flat = [u[i] * v[j] * w[k] % p
                            for i in range(2) for j in range(2) for k in range(2)]
                    reps.add(_canonical_rep(flat, p))
        for rep in reps:
            for axis in range(3):
                rows = {}
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            idx = (i, j, k)
                            r, c = idx[axis], idx[(axis + 1) % 3] * 2 + idx[(axis + 2) % 3]
                            rows.setdefault(r, [0] * 4)[c] = rep[(i * 2 + j) * 2 + k]
                assert modp_rank([rows[0], rows[1]], p) == 1

    elif kind == "veronese2":
        n = fam["n"]
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for v in _proj_reps(n, p):
            flat = [v[i] * v[j] % p for (i, j) in cells]
            reps.add(_canonical_rep(flat, p))
        for rep in reps:
            full = [[0] * n for _ in range(n)]
            for (i, j), val in zip(cells, rep):
                full[i][j] = full[j][i] = val
            assert modp_rank(full, p) == 1, "square point is not rank 1"

    elif kind == "gr2":
        n = fam["n"]
        pairs, pidx = _wedge2_index(n)
        for mat in _iter_subspaces(2, n, p):
            reps.add(_canonical_rep(_wedge_of_rows(mat, n, pairs, p), p))
        for rep in reps:
            assert _plucker2_ok(rep, n, pidx, p), "2-vector fails the quadrics"

    elif kind == "gr3":
        for mat in _iter_subspaces(3, 6, p):
            reps.add(_canonical_rep(_wedge3_of_rows(mat, p), p))
        for rep in reps:
            assert _wedge3_divisors_modp(rep, p) == 3, "3-vector not decomposable"

    elif kind == "lambda20":
        n = fam["n"]
        codec, pairs, pidx, form = _lambda20_codec(n, p)
        assert codec.dim == d
        for mat in _iter_subspaces(2, n, p):
            x, y = mat
            pairing = sum(x[i] * form[i][j] * y[j]
                          for i in range(n) for j in range(n)) % p
            if pairing:
                continue
            full = _wedge_of_rows(mat, n, pairs, p)
            sub = codec.to_sub(full)
            reps.add(_canonical_rep(sub, p))
        for rep in reps:
            full = codec.to_full(list(rep))
            assert _plucker2_ok(full, n, pidx, p)
        meta["codec"] = "free wedge coordinates after removing the form trace"

    elif kind == "lambda30":
        codec, tidx, form = _lambda30_codec(p)
        assert codec.dim == 14
        for mat in _iter_subspaces(3, 6, p):
            rows = mat
            iso = all(
                sum(rows[a][i] * form[i][j] * rows[b][j]
                    for i in range(6) for j in range(6)) % p == 0
                for a in range(3) for b in range(a + 1, 3))
            if not iso:
                continue
            full = _wedge3_of_rows(rows, p)
            sub = codec.to_sub(full)
            reps.add(_canonical_rep(sub, p))
        for rep in reps:
            full = codec.to_full(list(rep))
            assert _wedge3_divisors_modp(full, p) == 3
        meta["codec"] = "free wedge coordinates inside the zero-contraction space"

    elif kind == "quadric":
        n = fam["n"]
        for v in _proj_reps(n, p):
            if split_quadric_value(v, p) == 0:
                reps.add(_canonical_rep(v, p))
        for rep in reps:
            assert split_quadric_value(rep, p) == 0

    elif kind == "spinor10":
        if p != 2:
            _check_cap(p, 16)  # p = 3 already exceeds the cap
            raise ValueError("spinor10 enumeration is supported over F_2 only")
        quadrics = _spinor_quadrics_modp(2)
        for code in f2_pure_spinor_set():
            vec = [(code >> i) & 1 for i in range(16)]
            reps.add(tuple(vec))
        for rep in reps:
            for quad in quadrics:
                val = sum(c * rep[a] * rep[b] for (a, b), c in quad.items()) % 2
                assert val == 0, "enumerated spinor fails a purity quadric"

    elif kind == "sl3adj":
        cells = [(0, 0), (1, 1), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        for u in _proj_reps(3, p):
            for v in _proj_reps(3, p):
                if sum(a * b for a, b in zip(u, v)) % p:
                    continue
                mat = [[u[i] * v[j] % p for j in range(3)] for i in range(3)]
                flat = [mat[i][j] for (i, j) in cells]
                reps.add(_canonical_rep(flat, p))
        for rep in reps:
            mat = [[0] * 3 for _ in range(3)]
            for (i, j), val in zip(cells, rep):
                mat[i][j] = val
            mat[2][2] = (-mat[0][0] - mat[1][1]) % p
            assert modp_rank(mat, p) == 1

    else:
        raise AssertionError(kind)

    reps.discard(tuple([0] * d))
    encoded = tuple(sorted(encode_vec(list(r), p) for r in reps))
    return PointSet(family=family, prime=p, dim=d, reps=encoded, meta=meta)


# ---------------------------------------------------------------------------
# BFS rank tables
# ---------------------------------------------------------------------------

@dataclass
class RankTable:
    """Exact additive rank of every vector: ranks[code] is the minimal
    number of cone points summing to the vector (0 for the zero vector)."""
    family: str
    prime: int
    dim: int
    ranks: np.ndarray
    points: PointSet

    def rank_of_code(self, code: int) -> int:
        return int(self.ranks[code])

    def rank_of_vec(self, vec) -> int:
        return int(self.ranks[encode_vec(list(vec), self.prime)])

    @property
    def max_rank(self) -> int:
        return int(self.ranks.max())

    def layer_counts(self) -> dict:
        vals, counts = np.unique(self.ranks, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def header(self) -> dict:
        return {
            "version": TABLE_VERSION,
            "family": self.family,
            "prime": self.prime,
            "dim": self.dim,
            "encoding": "little-endian base-p digits; coordinate i of code c "
                        "is (c // p**i) % p; one rank byte per code",
            "points": len(self.points.reps),
            "reps": list(self.points.reps),
            "counts": {str(k): v for k, v in self.layer_counts().items()},
        }

    def save(self, stem: str) -> None:
        """Write ``stem.bin`` (the rank bytes) and then ``stem.json`` (the
        header with their sha256), each through a temporary file in the
        same directory that is renamed into place."""
        data = self.ranks.astype(np.uint8).tobytes()
        head = dict(self.header(), sha256=_sha256(data))
        _write_atomic(stem + ".bin", data)
        _write_atomic(stem + ".json", json.dumps(
            head, indent=1, sort_keys=True).encode("utf-8"))

    @classmethod
    def load(cls, stem: str) -> "RankTable":
        """Read a table written by ``save``; ValueError if the header's
        version, length or sha256 does not match the rank bytes."""
        with open(stem + ".json", "r", encoding="utf-8") as fh:
            head = json.load(fh)
        if head.get("version") != TABLE_VERSION:
            raise ValueError("cache version mismatch")
        with open(stem + ".bin", "rb") as fh:
            data = fh.read()
        if len(data) != head["prime"] ** head["dim"]:
            raise ValueError("cache length mismatch")
        if _sha256(data) != head.get("sha256"):
            raise ValueError("cache checksum mismatch")
        pts = PointSet(family=head["family"], prime=head["prime"],
                       dim=head["dim"], reps=tuple(head["reps"]))
        return cls(family=head["family"], prime=head["prime"],
                   dim=head["dim"], ranks=np.frombuffer(data, np.uint8).copy(),
                   points=pts)


def _sha256(data: bytes) -> str:
    # imported here: hashlib loads OpenSSL, about 3 MiB resident, which
    # only the table cache needs
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path`` and rename it
    into place, so a reader sees the old file or the new one."""
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_UNSEEN = 255
#: Codes per block: the unit of work and of the thread split.
_BLOCK = 1 << 16
#: A layer pulls once |frontier| * _PULL_RATIO exceeds the unseen count.
_PULL_RATIO = 14
#: A pull drops the codes it has placed from its block every this many
#: cone points.
_COMPACT_EVERY = 8


def _digit_add_rows(halves, p, k, scale):
    """One int32 row per half a: row[x] is scale times the k-digit base-p
    code of the digitwise sum a + x mod p, for x in range(p**k)."""
    x = np.arange(p ** k, dtype=np.int32)
    halves = halves.astype(np.int32)[:, None]
    rows = np.zeros((len(halves), p ** k), dtype=np.int32)
    for i in range(k):
        w = p ** i
        digit = halves // w + x // w
        digit %= p
        digit *= w * scale
        rows += digit
    return rows


def bfs_rank_table(points: PointSet, threads: int = 1) -> RankTable:
    """Layered breadth-first rank table: layer r is (layer r-1 + cone)
    minus everything already assigned; partitions the whole space.

    Each layer runs in one of two directions (direction-optimising BFS,
    Beamer, Asanovic and Patterson, SC 2012).  While the frontier (layer
    r-1) is small it pushes: f + s gets rank r for every frontier code f
    and cone point s with f + s unseen.  Once |frontier| * 14 exceeds the
    number of unseen codes it pulls: an unseen code u gets rank r if u - s
    has rank r-1 for some cone point s.  The cone is closed under scalars,
    so -s runs over the cone as s does and a pull adds the same cone codes
    as a push.  A pull gathers the unseen codes of one window of 2^16
    entries of ``ranks`` at a time and drops the codes it has placed every
    8 cone points.

    Over F_2, f + s is f ^ s.  Over an odd prime, digitwise addition of s
    is two lookups in half-word rows: with h = d // 2, row lo maps the low
    h base-p digits of f to those of f + s, row hi the high d - h digits
    (times p**h), so f + s = hi[f // p**h] + lo[f % p**h].  There is one
    row per distinct half of a cone point.

    Blocks of at most 2^16 codes (frontier chunks when pushing, windows of
    ``ranks`` when pulling) are the unit of work: each makes its buffers
    once, and ``threads`` workers share the blocks of a layer.
    """
    p, d = points.prime, points.dim
    size = p ** d
    if size > AMBIENT_CAP:
        raise CapExceeded("%d^%d vectors exceed the ambient cap" % (p, d))
    cone = points.cone_codes()
    if len(cone) == 0:
        raise ValueError("empty point set")
    ranks = np.full(size, _UNSEEN, dtype=np.uint8)
    ranks[0] = 0
    ranks[cone] = 1
    if p == 2:
        steps = [int(s) for s in cone]
    else:
        half = p ** (d // 2)
        lo_keys, lo_of = np.unique(cone % half, return_inverse=True)
        hi_keys, hi_of = np.unique(cone // half, return_inverse=True)
        lo_rows = _digit_add_rows(lo_keys, p, d // 2, 1)
        hi_rows = _digit_add_rows(hi_keys, p, d - d // 2, half)
        steps = [(lo_rows[i], hi_rows[j]) for i, j in zip(lo_of, hi_of)]

    def expand(r, pull, block):
        # a sum is read from keys: the codes over F_2, their high and low
        # halves over an odd prime; every index below is in range by
        # construction, so the takes use mode="clip", which writes
        # straight into ``out``
        n = len(block)
        if not n:
            return
        keys = [block] if p == 2 else list(np.divmod(block, half))
        cand = np.empty(n, dtype=np.intp)
        parts = np.empty((2, n), dtype=np.int32)
        seen = np.empty(n, dtype=np.uint8)
        hit = np.empty(n, dtype=bool)
        found = np.zeros(n, dtype=bool)
        want = r - 1 if pull else _UNSEEN
        for k, s in enumerate(steps, 1):
            m = len(keys[0])
            c, ht = cand[:m], hit[:m]
            if p == 2:
                np.bitwise_xor(keys[0], s, out=c)
            else:
                np.take(s[1], keys[0], out=parts[0, :m], mode="clip")
                np.take(s[0], keys[1], out=parts[1, :m], mode="clip")
                np.add(parts[0, :m], parts[1, :m], out=c)
            np.take(ranks, c, out=seen[:m], mode="clip")
            np.equal(seen[:m], want, out=ht)
            if not pull:
                ranks[c[ht]] = r
                continue
            done = found[:m]
            done |= ht
            if k % _COMPACT_EVERY and k < len(steps) or not done.any():
                continue
            codes = keys[0] if p == 2 else keys[0] * half + keys[1]
            ranks[codes[done]] = r
            keep = ~done
            keys = [key[keep] for key in keys]
            if not len(keys[0]):
                return
            found[:len(keys[0])] = False

    unseen = size - 1 - len(cone)
    placed = len(cone)
    r = 1
    while unseen:
        r += 1
        if r > 120:
            raise AssertionError("rank layering failed to terminate")
        pull = placed * _PULL_RATIO > unseen
        if pull:
            starts = range(0, size, _BLOCK)

            def run(start):
                block = np.flatnonzero(ranks[start:start + _BLOCK] == _UNSEEN)
                block += start
                expand(r, pull, block)
        else:
            frontier = np.flatnonzero(ranks == r - 1)
            starts = range(0, len(frontier), _BLOCK)

            def run(start):
                expand(r, pull, frontier[start:start + _BLOCK])

        if threads > 1 and len(starts) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(run, starts))
        else:
            for start in starts:
                run(start)
        placed = int(np.count_nonzero(ranks == r))
        if not placed:
            raise AssertionError("point set does not span the ambient space")
        unseen -= placed
    return RankTable(family=points.family, prime=p, dim=d,
                     ranks=ranks, points=points)


def _cache_stem(family, p):
    root = os.environ.get("SECANT_CACHE_DIR")
    if not root:
        return None
    os.makedirs(root, exist_ok=True)
    return os.path.join(root, "oracle_%s_p%d_v%d" % (family, p, TABLE_VERSION))


def rank_table(family: str, p: int, threads: int = 1,
               cache: bool = True) -> RankTable:
    """Enumerate + BFS with optional disk caching keyed by SECANT_CACHE_DIR."""
    stem = _cache_stem(family, p) if cache else None
    if stem is not None and os.path.exists(stem + ".json"):
        try:
            table = RankTable.load(stem)
            if table.family == family and table.prime == p:
                return table
        except (ValueError, OSError, KeyError):
            pass  # corrupt or stale cache: recompute
    table = bfs_rank_table(enumerate_cone_points(family, p), threads=threads)
    if stem is not None:
        try:
            table.save(stem)
        except OSError:
            pass
    return table


# ---------------------------------------------------------------------------
# Parabolic-projection rank preservation
# ---------------------------------------------------------------------------

@dataclass
class LeviReport:
    big_family: str
    sub_family: str
    prime: int
    vectors_checked: int
    rank_equal: bool
    points_projected: int
    projection_contained: bool


def _embedding_maps(big: str, sub: str):
    """Coordinate embedding sub -> big and the matching projection,
    as an index list: sub coordinate t sits at big coordinate emb[t]."""
    bf, sf = parse_family(big), parse_family(sub)
    if bf["kind"] == "segre" and sf["kind"] == "segre":
        (bm, bn), (sm, sn) = bf["sizes"], sf["sizes"]
        if sm > bm or sn > bn:
            raise ValueError("sub factors exceed big factors")
        emb = [i * bn + j for i in range(sm) for j in range(sn)]
        return emb
    if bf["kind"] == "gr2" and sf["kind"] == "gr2":
        bn, sn = bf["n"], sf["n"]
        if sn > bn:
            raise ValueError("sub dimension exceeds big dimension")
        bpairs, bidx = _wedge2_index(bn)
        spairs, _ = _wedge2_index(sn)
        emb = [bidx[pq] for pq in spairs]
        return emb
    raise ValueError("unsupported projection pair %s -> %s" % (big, sub))


def levi_projection_test(big: str, sub: str, p: int,
                         threads: int = 1) -> LeviReport:
    """Exhaustively verify that additive rank computed against the big cone
    equals rank against the small cone on the coordinate subspace, and that
    projecting any big cone point lands in the small cone or at zero."""
    emb = _embedding_maps(big, sub)
    big_table = rank_table(big, p, threads=threads)
    sub_table = rank_table(sub, p, threads=threads)
    bd, sd = big_table.dim, sub_table.dim

    equal = True
    for code in range(1, p ** sd):
        svec = decode_vec(code, p, sd)
        bvec = [0] * bd
        for t, pos in enumerate(emb):
            bvec[pos] = svec[t]
        if big_table.rank_of_vec(bvec) != sub_table.rank_of_code(code):
            equal = False
            break

    sub_cone = set(int(c) for c in sub_table.points.cone_codes())
    contained = True
    projected = 0
    for code in big_table.points.cone_codes():
        bvec = decode_vec(int(code), p, bd)
        proj = [bvec[pos] for pos in emb]
        if not any(proj):
            continue
        projected += 1
        if encode_vec(proj, p) not in sub_cone:
            contained = False
            break
    return LeviReport(big_family=big, sub_family=sub, prime=p,
                      vectors_checked=p ** sd - 1, rank_equal=equal,
                      points_projected=projected,
                      projection_contained=contained)


# ---------------------------------------------------------------------------
# Tangent probes
# ---------------------------------------------------------------------------

@dataclass
class TangentReport:
    family: str
    prime: int
    probes: int
    histogram: dict
    max_rank: int
    asserted: bool
    label: str


def _matrix_units(n):
    units = []
    for a in range(n):
        for b in range(n):
            m = [[0] * n for _ in range(n)]
            m[a][b] = 1
            units.append(m)
    return units


def _derivation_on_wedge2(e, n, pairs, p):
    """Action of a matrix on 2-vectors: x^y -> ex^y + x^ey, as a matrix on
    wedge coordinates."""
    _, pidx = _wedge2_index(n)
    dim = len(pairs)
    out = [[0] * dim for _ in range(dim)]
    for (i, j), src in pidx.items():
        # e_i e_j basis bivector: e.(e_i) ^ e_j + e_i ^ e.(e_j)
        for k in range(n):
            if e[k][i]:
                a, b, s = (k, j, 1) if k < j else (j, k, -1)
                if k != j:
                    out[pidx[(a, b)]][src] = (out[pidx[(a, b)]][src]
                                              + s * e[k][i]) % p
            if e[k][j]:
                a, b, s = (i, k, 1) if i < k else (k, i, -1)
                if i != k:
                    out[pidx[(a, b)]][src] = (out[pidx[(a, b)]][src]
                                              + s * e[k][j]) % p
    return out


def _derivation_on_wedge3(e, p):
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    out = [[0] * 20 for _ in range(20)]

    def add_term(seq, coeff, src):
        if len(set(seq)) != 3:
            return
        key = tuple(sorted(seq))
        sign = 1
        lst = list(seq)
        for i in range(3):
            for j in range(i + 1, 3):
                if lst[i] > lst[j]:
                    lst[i], lst[j] = lst[j], lst[i]
                    sign = -sign
        out[tidx[key]][src] = (out[tidx[key]][src] + sign * coeff) % p

    for (i, j, k), src in tidx.items():
        for m in range(6):
            if e[m][i]:
                add_term((m, j, k), e[m][i], src)
            if e[m][j]:
                add_term((i, m, k), e[m][j], src)
            if e[m][k]:
                add_term((i, j, m), e[m][k], src)
    return out


def _form_algebra_basis(form, p):
    """Basis of {S : S^T F + F S = 0} mod p (symplectic/orthogonal type)."""
    n = len(form)
    rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * (n * n)
            # (S^T F + F S)[a][b] = sum_k S[k][a] F[k][b] + F[a][k] S[k][b]
            for k in range(n):
                row[k * n + a] = (row[k * n + a] + form[k][b]) % p
                row[k * n + b] = (row[k * n + b] + form[a][k]) % p
            rows.append(row)
    basis = []
    for vec in modp_nullspace(rows, p):
        basis.append([[int(vec[i * n + j]) % p for j in range(n)]
                      for i in range(n)])
    return basis


def _apply_linear(mat, vec, p):
    n = len(mat)
    return [sum(mat[i][j] * vec[j] for j in range(len(vec))) % p
            for i in range(n)]


def _conjugate_into(codec, big_action, p):
    """Restrict an ambient linear action preserving the subspace to the
    codec's coordinates."""
    sub_dim = codec.dim
    g = [[0] * sub_dim for _ in range(sub_dim)]
    for col in range(sub_dim):
        basis_sub = [0] * sub_dim
        basis_sub[col] = 1
        image = _apply_linear(big_action, codec.to_full(basis_sub), p)
        image_sub = codec.to_sub(image)
        for row in range(sub_dim):
            g[row][col] = image_sub[row]
    return g


def _composite_batch(units, p, family, count=24):
    """Deterministic dense algebra elements: seeded mod-p combinations of
    the basis generators.  Rank-1 basis elements alone probe degenerately
    (x + t.x stays a point for wedge families because the quadratic terms
    of (1+t) vanish), so dense elements are needed to expose tangent
    vectors of higher additive rank."""
    import random as _random
    rng = _random.Random("tangent:%s:%d" % (family, p))
    if not units:
        return []
    rows = len(units[0])
    cols = len(units[0][0])
    out = []
    for _ in range(count):
        acc = [[0] * cols for _ in range(rows)]
        for u in units:
            c = rng.randrange(p)
            if c:
                for i in range(rows):
                    for j in range(cols):
                        if u[i][j]:
                            acc[i][j] = (acc[i][j] + c * u[i][j]) % p
        out.append(acc)
    return out


def _family_generators(family, p):
    """(generator action matrices on the ambient coordinates, label)."""
    fam = parse_family(family)
    kind = fam["kind"]
    if kind == "segre":
        m, n = fam["sizes"]
        gens = []
        for e in _matrix_units(m):  # left action: E M
            g = [[0] * (m * n) for _ in range(m * n)]
            for i in range(m):
                for j in range(n):
                    for k in range(m):
                        if e[i][k]:
                            g[i * n + j][k * n + j] = e[i][k] % p
            gens.append(g)
        for e in _matrix_units(n):  # right action: M E^T-style column mix
            g = [[0] * (m * n) for _ in range(m * n)]
            for i in range(m):
                for j in range(n):
                    for k in range(n):
                        if e[j][k]:
                            g[i * n + j][i * n + k] = e[j][k] % p
            gens.append(g)
        return gens
    if kind == "segre3":
        gens = []
        for axis in range(3):
            for e in _matrix_units(2):
                g = [[0] * 8 for _ in range(8)]
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            idx = (i, j, k)
                            src = (i * 2 + j) * 2 + k
                            for t in range(2):
                                if e[idx[axis]][t]:
                                    dst_idx = list(idx)
                                    # value flows from source with axis coord t
                                    src_idx = list(idx)
                                    src_idx[axis] = t
                                    s = (src_idx[0] * 2 + src_idx[1]) * 2 + src_idx[2]
                                    g[src][s] = (g[src][s] + e[idx[axis]][t]) % p
                gens.append(g)
        return gens
    if kind == "veronese2":
        n = fam["n"]
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        cidx = {c: t for t, c in enumerate(cells)}
        gens = []
        for e in _matrix_units(n):
            g = [[0] * len(cells) for _ in range(len(cells))]
            for (i, j), src in cidx.items():
                # S = v v^T: action E S + S E^T on cell (a,b)
                for a in range(n):
                    if e[a][i]:
                        key = (a, j) if a <= j else (j, a)
                        g[cidx[key]][src] = (g[cidx[key]][src] + e[a][i]) % p
                    if e[a][j]:
                        key = (i, a) if i <= a else (a, i)
                        g[cidx[key]][src] = (g[cidx[key]][src] + e[a][j]) % p
            gens.append(g)
        return gens
    if kind == "gr2":
        n = fam["n"]
        pairs, _ = _wedge2_index(n)
        return [_derivation_on_wedge2(e, n, pairs, p) for e in _matrix_units(n)]
    if kind == "gr3":
        return [_derivation_on_wedge3(e, p) for e in _matrix_units(6)]
    if kind == "lambda20":
        n = fam["n"]
        codec, pairs, pidx, form = _lambda20_codec(n, p)
        return [_conjugate_into(codec, _derivation_on_wedge2(s_mat, n, pairs, p), p)
                for s_mat in _form_algebra_basis(form, p)]
    if kind == "lambda30":
        codec, tidx, form = _lambda30_codec(p)
        return [_conjugate_into(codec, _derivation_on_wedge3(s_mat, p), p)
                for s_mat in _form_algebra_basis(form, p)]
    if kind == "quadric":
        n = fam["n"]
        return _form_algebra_basis(_split_symmetric_modp(n, p), p)
    if kind == "spinor10":
        gens = []
        sub_index = {frozenset(s): i for i, s in enumerate(EVEN_SUBSETS)}

        def op_matrix(action):
            g = [[0] * 16 for _ in range(16)]
            for idx, s in enumerate(EVEN_SUBSETS):
                for (target, coeff) in action(frozenset(s)):
                    g[sub_index[target]][idx] = (g[sub_index[target]][idx]
                                                 + coeff) % p
            return g

        for i, j in itertools.combinations(range(5), 2):
            def wedge_ij(s, i=i, j=j):
                if i in s or j in s:
                    return []
                return [(s | {i, j}, 1)]

            def contract_ij(s, i=i, j=j):
                if i not in s or j not in s:
                    return []
                return [(s - {i, j}, 1)]
            gens.append(op_matrix(wedge_ij))
            gens.append(op_matrix(contract_ij))
        for i in range(5):
            for j in range(5):
                def mixed(s, i=i, j=j):
                    if j not in s:
                        return []
                    if i in s and i != j:
                        return []
                    return [((s - {j}) | {i}, 1)]
                gens.append(op_matrix(mixed))
        return gens
    if kind == "sl3adj":
        cells = [(0, 0), (1, 1), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        cidx = {c: t for t, c in enumerate(cells)}

        def unfold(vec):
            mat = [[0] * 3 for _ in range(3)]
            for (i, j), val in zip(cells, vec):
                mat[i][j] = val
            mat[2][2] = (-mat[0][0] - mat[1][1]) % p
            return mat

        def fold(mat):
            return [mat[i][j] % p for (i, j) in cells]

        gens = []
        for e in _matrix_units(3):
            g = [[0] * 8 for _ in range(8)]
            for col in range(8):
                basis = [0] * 8
                basis[col] = 1
                x = unfold(basis)
                bracket = [[(sum(e[i][k] * x[k][j] for k in range(3))
                             - sum(x[i][k] * e[k][j] for k in range(3))) % p
                            for j in range(3)] for i in range(3)]
                for row, val in enumerate(fold(bracket)):
                    g[row][col] = val
            gens.append(g)
        return gens
    raise ValueError("no algebra action available for family %r" % family)


#: Families with field-independent rank <= 2 for x + t.x (matrix rank /
#: skew normal form arguments work over any field).
_ASSERT_FAMILIES = ("segre", "gr2")


def tangent_probe(family: str, p: int, threads: int = 1) -> TangentReport:
    """BFS rank of x + t.x over all cone representatives x and algebra
    generators t.  Asserts rank <= 2 for matrix/skew families where the
    bound is field-independent; reports (without asserting) elsewhere."""
    table = rank_table(family, p, threads=threads)
    gens = _family_generators(family, p)
    gens = gens + _composite_batch(gens, p, family)
    kind = parse_family(family)["kind"]
    hist = {}
    probes = 0
    for code in table.points.reps:
        x = decode_vec(int(code), p, table.dim)
        for g in gens:
            tx = _apply_linear(g, x, p)
            y = [(a + b) % p for a, b in zip(x, tx)]
            r = table.rank_of_vec(y)
            hist[r] = hist.get(r, 0) + 1
            probes += 1
    mx = max(hist)
    asserted = kind in _ASSERT_FAMILIES
    if asserted and mx > 2:
        raise AssertionError(
            "tangent probe exceeded rank 2 on a field-independent family")
    label = ("asserted: field-independent rank <= 2 bound"
             if asserted else
             "report-only: finite-field rank may exceed the "
             "characteristic-0 border rank")
    return TangentReport(family=family, prime=p, probes=probes,
                         histogram=hist, max_rank=mx, asserted=asserted,
                         label=label)


def tensor222_check(p: int, threads: int = 1) -> bool:
    """BFS rank over F_p of the three-factor lower-bound tensor (the sum of
    the three products one step off a corner) equals 3 on the 2x2x2 family;
    also sanity-checks a decomposable control at rank 1."""
    if p > 5:
        raise ValueError("tensor222_check supports p <= 5")
    table = rank_table("segre-2x2x2", p, threads=threads)
    coords = [0] * 8
    for (i, j, k) in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        coords[(i * 2 + j) * 2 + k] = 1
    control = [0] * 8
    control[0] = 1  # e0 x e0 x e0
    assert table.rank_of_vec(control) == 1
    return table.rank_of_vec(coords) == 3


# ---------------------------------------------------------------------------
# Alternating 3-tensor lift comparison over F_2
# ---------------------------------------------------------------------------

_TR2_POLY = None


def wedge3_tr2_poly():
    """The unnormalized quartic invariant as a dict {sorted variable tuple:
    integer coefficient} over the 20 lexicographic wedge coordinates.
    Zero-testing this polynomial is equivalent to zero-testing the
    normalized quartic."""
    global _TR2_POLY
    if _TR2_POLY is not None:
        return _TR2_POLY
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    full = (0, 1, 2, 3, 4, 5)

    def perm_sign(seq):
        inv = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                  if seq[a] > seq[b])
        return -1 if inv % 2 else 1

    def coeff_var(i, j, k):
        if len({i, j, k}) != 3:
            return None
        key = tuple(sorted((i, j, k)))
        return (tidx[key], perm_sign((i, j, k)))

    # phi[k][i] as sparse quadratics {(v1 <= v2): coeff}
    phi = [[{} for _ in range(6)] for _ in range(6)]
    for i in range(6):
        four = {}
        for t in WEDGE3_TRIPLES:
            if i in t:
                continue
            quad = tuple(sorted((i,) + t))
            pos = quad.index(i)
            four.setdefault(quad, []).append((tidx[t], (-1) ** pos))
        for e, f in itertools.combinations(range(6), 2):
            comp = tuple(x for x in full if x not in (e, f))
            terms = four.get(comp, [])
            if not terms:
                continue
            eps = perm_sign((e, f) + comp)
            for k in range(6):
                cv = coeff_var(k, e, f)
                if cv is None:
                    continue
                var1, s1 = cv
                entry = phi[k][i]
                for var2, s2 in terms:
                    key = (var1, var2) if var1 <= var2 else (var2, var1)
                    entry[key] = entry.get(key, 0) + s1 * eps * s2
    poly = {}
    for a in range(6):
        for b in range(6):
            for (v1, v2), c1 in phi[a][b].items():
                if not c1:
                    continue
                for (v3, v4), c2 in phi[b][a].items():
                    if not c2:
                        continue
                    key = tuple(sorted((v1, v2, v3, v4)))
                    poly[key] = poly.get(key, 0) + c1 * c2
    _TR2_POLY = {k: v for k, v in poly.items() if v}
    return _TR2_POLY


def wedge3_tr2_values(coords) -> np.ndarray:
    """Exact values of the unnormalized quartic on an (N, 20) integer
    coordinate array, vectorized.  Entries must be small (|c| <= 100 or so)
    for the int64 accumulation to stay exact."""
    coords = np.asarray(coords)
    monos = [(mono, c) for mono, c in wedge3_tr2_poly().items() if c]
    out = np.zeros(len(coords), dtype=np.int64)
    step = 1 << 16
    for lo in range(0, len(coords), step):
        block = coords[lo:lo + step].astype(np.int64)
        acc = np.zeros(len(block), dtype=np.int64)
        for mono, c in monos:
            term = block[:, mono[0]].copy()
            for v in mono[1:]:
                term *= block[:, v]
            acc += c * term
        out[lo:lo + step] = acc
    return out


def _divisor_matrix_int(co):
    """The 15x6 integer matrix of v -> v wedge psi in the quartic-free
    coordinates; its kernel is the divisor space."""
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    rows = []
    for quad in itertools.combinations(range(6), 4):
        row = []
        for i in range(6):
            if i not in quad:
                row.append(0)
                continue
            rest = tuple(x for x in quad if x != i)
            pos = quad.index(i)
            row.append(((-1) ** pos) * int(co[tidx[rest]]))
        rows.append(row)
    return rows


def _gr3_point_lifts(table: "RankTable") -> tuple:
    """For every F_2 cone point (a decomposable alternating 3-tensor),
    recover its 3-plane mod 2 and wedge the 0/1 basis lifts over the
    integers.  Returns (codes array, signed integer coordinate array) where
    row r reduces to codes[r] mod 2."""
    codes = table.points.cone_codes()
    lifts = np.zeros((len(codes), 20), dtype=np.int8)
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    for r, code in enumerate(codes):
        co = [(int(code) >> i) & 1 for i in range(20)]
        kernel = modp_nullspace(_divisor_matrix_int(co), 2)
        if len(kernel) != 3:
            raise AssertionError(
                "cone point %d has mod-2 divisor dimension %d, expected 3"
                % (code, len(kernel)))
        basis = [[int(x) % 2 for x in vec] for vec in kernel]
        for (i, j, k), pos in tidx.items():
            det = (
                basis[0][i] * (basis[1][j] * basis[2][k]
                               - basis[1][k] * basis[2][j])
                - basis[0][j] * (basis[1][i] * basis[2][k]
                                 - basis[1][k] * basis[2][i])
                + basis[0][k] * (basis[1][i] * basis[2][j]
                                 - basis[1][j] * basis[2][i]))
            lifts[r][pos] = det
            if det % 2 != co[pos]:
                raise AssertionError("integer lift of point %d does not "
                                     "reduce to it mod 2" % code)
    return codes, lifts


def wedge3_f2_report(threads: int = 1, cache: bool = True) -> dict:
    """Full comparison of the characteristic-0 rank criterion against the
    exhaustive F_2 BFS table on all 2^20 - 1 vectors.

    Comparison semantics: an F_2 decomposition with r summands lifts
    summand-wise to an integer tensor (congruent to the input mod 2) that is
    a sum of r integer decomposables, so the rank criterion must return at
    most r on that lifted tensor.  Lifting coordinates instead of
    decompositions proves nothing: the 0/1 coordinate lift of an
    F_2-decomposable tensor is usually NOT decomposable over the rationals
    (signs and even Pfaffians vanish mod 2), and this is checked empirically
    elsewhere rather than asserted away.

    Checks:
      * every cone point's plane-basis integer lift has criterion rank
        exactly 1 (equality on all decomposables);
      * every BFS rank-2 code's two-point lift avoids criterion rank 3: the
        unnormalized quartic is nonzero, or else the exact integer divisor
        space is nontrivial;
      * BFS rank-3 codes satisfy criterion <= 3 trivially (the criterion
        only takes values 1, 2, 3).

    The reverse containment {criterion = 1} subset of {BFS = 1} needs no
    search: a rational divisor space of dimension 3 reduces mod 2 to an F_2
    divisor space of dimension >= 3, which forces F_2-decomposability.
    """
    from .linalg import int_rank

    table = rank_table("gr3-6", 2, threads=threads, cache=cache)
    counts = table.layer_counts()
    report = {
        "layer_counts": {int(k): int(v) for k, v in counts.items()},
        "points": len(table.points.reps),
    }

    codes, lifts = _gr3_point_lifts(table)
    # decomposables: criterion equals 1 exactly on the plane-basis lift
    ok = True
    for r in range(len(codes)):
        if wedge3_c6_rank([int(x) for x in lifts[r]]) != 1:
            ok = False
            report["first_violation"] = int(codes[r])
            break
    report["decomposable_equality"] = ok
    if not ok:
        report["criterion_le_bfs"] = False
        return report

    # pair every rank-2 code with one two-point decomposition (XOR sweep)
    pa = np.full(1 << 20, -1, dtype=np.int32)
    pb = np.full(1 << 20, -1, dtype=np.int32)
    for i in range(len(codes)):
        x = codes[i] ^ codes[i + 1:]
        unset = pa[x] < 0
        idx = x[unset]
        pa[idx] = i
        pb[idx] = np.nonzero(unset)[0].astype(np.int32) + i + 1
    twos = np.flatnonzero(table.ranks == 2).astype(np.int64)
    if not (pa[twos] >= 0).all():
        raise AssertionError("a BFS rank-2 code is not a sum of two cone "
                             "points — table corrupt")
    two_lifts = (lifts[pa[twos]].astype(np.int16)
                 + lifts[pb[twos]].astype(np.int16))
    jvals = wedge3_tr2_values(two_lifts)
    need_divisor = np.flatnonzero(jvals == 0)
    report["rank2_count"] = int(len(twos))
    report["rank2_quartic_nonzero"] = int(len(twos) - len(need_divisor))
    report["rank2_divisor_checked"] = int(len(need_divisor))
    for row in need_divisor:
        mat = _divisor_matrix_int([int(x) for x in two_lifts[row]])
        if int_rank(mat) >= 6:
            report["criterion_le_bfs"] = False
            report["first_violation"] = int(twos[row])
            return report
    report["criterion_le_bfs"] = True
    report["rank3_count"] = int(counts.get(3, 0))

    # frozen regression value: the witness element reduced mod 2
    witness_code = 0
    tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
    for t in ((0, 1, 3), (0, 2, 4), (1, 2, 5)):
        witness_code |= 1 << tidx[t]
    report["witness_code"] = int(witness_code)
    report["witness_bfs_rank"] = int(table.rank_of_code(witness_code))
    report["max_rank"] = int(table.max_rank)
    return report
