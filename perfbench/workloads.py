"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and returns a list
of operations.  An operation is ``(kind, run, check)``: ``run()`` calls the
program and returns its output, and ``check(output)`` returns ``None`` when
the output agrees with a computation made apart from the program (see
``indep``) or with the way the input was built, and a message otherwise.
Every pass runs the same list, so every pass repeats the same operations.
``KEEP_VERIFIED`` lets the runner keep each verified output, so that a later
pass's equal output needs no second check; the oracle workload re-checks
every pass instead of holding its tables in memory.  ``COLD_PROBES`` makes
every set-up probe process a cold pass too, for a workload whose cold pass
takes about a second, so that cold_s is a median rather than one sample.
``PROBES`` names the host-speed probe loops (``hostspeed.PROBES``) whose
slowness scales the workload's times.

The program is reached only through module attributes (``secant.ranks.X``),
never through names copied into this module, so the tracer's patches apply.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
from fractions import Fraction

import indep

THREADS = 2  # oracle thread pool size; see README


def _cli(argv):
    """Run one CLI command in-process and return its parsed JSON output."""
    import secant.cli
    buf = io.StringIO()
    code = secant.cli.main(list(argv), out=buf)
    if code != 0:
        raise RuntimeError("secant %s exited %d" % (" ".join(argv), code))
    return json.loads(buf.getvalue())


def _expect(cond, msg):
    return None if cond else msg


def _unimodular(rng, n, steps):
    """Random integer matrix of determinant +-1: a product of elementary
    transvections I + t e_ij and one row permutation."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        g[i] = [a + t * b for a, b in zip(g[i], g[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    return [g[p] for p in perm]


def _nonzero_fraction(rng, top=5):
    return Fraction(rng.choice([v for v in range(-top, top + 1) if v]),
                    rng.randint(1, 3))


# ---------------------------------------------------------------------------
# lie-classify


#: Simple types of rank <= 8 in the table's canonical ranges; their 161
#: fundamental weights.
_LIE_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(3, 9)]
              + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(4, 9)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

#: Dimensions of the exceptional Lie algebras.
_EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248,
                     ("F", 4): 52, ("G", 2): 14}

#: Five partitions of 13 with their (dim Im, rank of the form on Im).
_PARTITIONS_13 = [
    ((3, 3, 1, 1, 1, 1, 1, 1, 1), (4, 2)),
    ((3, 2, 2, 1, 1, 1, 1, 1, 1), (4, 1)),
    ((2, 2, 2, 2, 1, 1, 1, 1, 1), (4, 0)),
    ((3,) + (1,) * 10, (2, 1)),
    ((2, 2) + (1,) * 9, (2, 0)),
]

#: The six-case table of coforms x1^x2 + y1^y2 of two isotropic planes.
_PAIR_CASES = {(4, 4): "a", (4, 2): "b", (4, 0): "c",
               (2, 1): "d", (2, 0): "e", (0, 0): "f"}


def _split_gram(n):
    """Split symmetric form: hyperbolic pairs (2i, 2i+1), plus a unit
    vector when n is odd."""
    g = [[0] * n for _ in range(n)]
    for i in range(n // 2):
        g[2 * i][2 * i + 1] = g[2 * i + 1][2 * i] = 1
    if n % 2:
        g[n - 1][n - 1] = 1
    return g


def _form(u, v, gram):
    return sum(Fraction(u[i]) * gram[i][j] * v[j]
               for i in range(len(u)) for j in range(len(v)) if gram[i][j])


def _pair_stats(x1, x2, y1, y2, gram):
    """(dim Im W, rank of the form on Im W) for W = x1^x2 + y1^y2, where
    both planes are isotropic.  When the four vectors are independent, Im W
    is their span and the form's Gram matrix there is [[0, B], [B^T, 0]]
    with B = (x_i . y_j), so the rank is 2 rank(B); otherwise Im W is found
    by elimination."""
    if indep.frac_rank([x1, x2, y1, y2]) == 4:
        b = [[_form(x, y, gram) for y in (y1, y2)] for x in (x1, x2)]
        return 4, 2 * indep.frac_rank(b)
    n = len(gram)
    w = [[Fraction(x1[i]) * x2[j] - Fraction(x2[i]) * x1[j]
          + Fraction(y1[i]) * y2[j] - Fraction(y2[i]) * y1[j]
          for j in range(n)] for i in range(n)]
    cols = indep.column_basis(w)
    basis = [[w[i][c] for i in range(n)] for c in cols]
    g = [[_form(u, v, gram) for v in basis] for u in basis]
    return len(cols), (indep.frac_rank(g) if g else 0)


def _bracket_sum(*terms):
    out: dict = {}
    for t in terms:
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


class LieClassify:
    name = "lie-classify"
    KEEP_VERIFIED = True
    COLD_PROBES = False
    PROBES = ("python",)

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.root = root

    def setup(self):
        import secant.rootsys as rs
        rng = random.Random("lie-classify/%d" % self.seed)
        with open(os.path.join(self.root, "tests", "data",
                               "tame_table_rank8.json")) as fh:
            self.tame = set(json.load(fh)["rows"])
        fundamentals = []
        for fam, rank in _LIE_TYPES:
            st = rs.SimpleType(fam, rank)
            for pos in range(rank):
                marks = tuple(int(t == pos) for t in range(rank))
                g = rs.canonicalize(rs.GroupDescriptor(((st, marks),)))
                fundamentals.append((g, rs.format_descriptor(g)))
        wild = [d for _, d in fundamentals if d not in self.tame]
        ops = [("cli.table", lambda: _cli(["table", "--max-rank", "8",
                                           "--format", "json"]),
                self._check_table)]
        for g, desc in fundamentals:
            ops.append(("fundamental", lambda g=g: self._verdict(g),
                        lambda out, desc=desc: self._check_verdict(desc, out)))
        for desc in rng.sample([d for _, d in fundamentals], 4):
            ops.append(("cli.classify",
                        lambda d=desc: _cli(["classify", d, "--json"]),
                        lambda out, d=desc: self._check_cli_classify(d, out)))
        for desc in rng.sample(wild, 3):
            ops.append(("cli.chop-tree",
                        lambda d=desc: _cli(["chop-tree", d, "--json"]),
                        self._check_chop))
        for key, dim in _EXCEPTIONAL_DIMS.items():
            triples = [tuple(rng.randrange(dim) for _ in range(3))
                       for _ in range(12)]
            ops.append(("build_chevalley",
                        lambda key=key: self._chevalley(key),
                        lambda alg, dim=dim, tr=triples:
                            self._check_algebra(alg, dim, tr)))
        ops += [
            ("cli.witness", lambda: _cli(["witness", "e7", "--json"]),
             self._check_e7),
            ("cli.witness", lambda: _cli(["witness", "sp6", "--json"]),
             lambda out: _expect(out["contraction_is_zero"]
                                 and out["summand_planes_isotropic"]
                                 and out["rank"] == 3, "sp6 witness")),
            ("cli.witness", lambda: _cli(["witness", "sl6", "--json"]),
             lambda out: _expect([r["rank"] for r in out["representatives"]]
                                 == [1, 2, 2, 3], "sl6 orbit ranks")),
            ("cli.witness",
             lambda: _cli(["witness", "f4", "--seed", "0", "--json"]),
             lambda out: _expect(out["found"] and out["stats"] == [4, 1]
                                 and out["membership_ok"]
                                 and out["tangent_rank"]
                                 == out["expected_tangent_rank"] == 21,
                                 "f4 witness")),
        ]
        for element, want in (("root", 58), ("pair:0", 92), ("3a1", 112)):
            ops.append(("cli.orbit-dim",
                        lambda e=element: _cli(["orbit-dim", "E8", "--element",
                                                e, "--json"]),
                        lambda out, w=want: _expect(
                            out["orbit_dim"] == w and out["algebra_dim"] == 248,
                            "E8 orbit dimension %s != %d" % (out["orbit_dim"], w))))
        for parts, want in _PARTITIONS_13:
            ops.append(("partition", lambda p=parts: self._partition(p),
                        lambda out, w=want: _expect(
                            out == (w, w), "partition stats %s != %s" % (out, w))))
        self.gram = _split_gram(13)
        for i in range(200):
            ops.append(("isotropic_pair",
                        lambda i=i: self._pair("pair/%d/%d" % (self.seed, i)),
                        self._check_pair))
        return ops

    # operations

    @staticmethod
    def _verdict(g):
        import secant.chopping as ch
        import secant.classifier as cl
        verdict = cl.classify(g)
        cert = ch.find_wild_certificate(g)
        replays = ch.replay_certificate(cert) if cert is not None else None
        return verdict.status, cert is not None, replays

    @staticmethod
    def _chevalley(key):
        import secant.chevalley as chv
        import secant.rootsys as rs
        return chv.build_chevalley(rs.SimpleType(*key))

    @staticmethod
    def _partition(parts):
        import secant.chevalley as chv
        op, gram = chv.so_nilpotent_realization(parts)
        w = chv.coform_of_operator(op, gram)
        return chv.partition_im_stats(parts), chv.skew_im_stats(w, gram)

    def _pair(self, seed_text):
        import secant.chevalley as chv
        rng = random.Random(seed_text)
        x1, x2 = chv.sample_isotropic_plane(13, rng)
        y1, y2 = chv.sample_isotropic_plane(13, rng)
        return (x1, x2, y1, y2), chv.isotropic_pair_case(x1, x2, y1, y2,
                                                         self.gram)

    # checks

    def _check_table(self, doc):
        rows = {r["descriptor"] for r in doc["rows"]}
        return _expect(rows == self.tame and doc["count"] == len(self.tame)
                       and all(r["status"] == "tame" for r in doc["rows"]),
                       "table differs from the transcription")

    def _check_verdict(self, desc, out):
        status, has_cert, replays = out
        if (status == "tame") != (desc in self.tame):
            return "%s: verdict %s disagrees with the table" % (desc, status)
        if (status == "wild") != has_cert:
            return "%s: verdict %s but certificate %s" % (desc, status, has_cert)
        return _expect(replays in (None, True), "%s: certificate fails" % desc)

    def _check_cli_classify(self, desc, out):
        tame = desc in self.tame
        return _expect(out["status"] == ("tame" if tame else "wild")
                       and out["certificate_replays"] is (None if tame else True),
                       "classify %s" % desc)

    @staticmethod
    def _check_chop(out):
        return _expect(out["status"] == "wild" and out["certificate"]
                       and out["certificate_replays"] is True, "chop-tree")

    @staticmethod
    def _check_algebra(alg, dim, triples):
        if alg.dim != dim:
            return "algebra dimension %d != %d" % (alg.dim, dim)
        br = alg.bracket
        for i, j, k in triples:
            x, y, z = {i: 1}, {j: 1}, {k: 1}
            jac = _bracket_sum(br(x, br(y, z)), br(y, br(z, x)),
                               br(z, br(x, y)))
            if jac:
                return "Jacobi fails on basis triple %s" % ((i, j, k),)
        return None

    @staticmethod
    def _check_e7(out):
        dims = {int(k): v for k, v in out["grading_dims"].items()}
        return _expect(dims == {-2: 1, -1: 56, 0: 134, 1: 56, 2: 1}
                       and out["single_dim"] == 58
                       and set(out["pair_dims"].values()) == {58, 92, 114}
                       and out["witness_dim"] == 112, "e7 witness numerology")

    def _check_pair(self, out):
        (x1, x2, y1, y2), label = out
        for u, v in ((x1, x2), (y1, y2)):
            if _form(u, u, self.gram) or _form(u, v, self.gram) \
                    or _form(v, v, self.gram):
                return "sampled plane is not isotropic"
        stats = _pair_stats(x1, x2, y1, y2, self.gram)
        return _expect(_PAIR_CASES.get(stats) == label,
                       "pair case %s but statistics %s" % (label, stats))


# ---------------------------------------------------------------------------
# exact-rank


def _oct_conj(u):
    return (u[0],) + tuple(-v for v in u[1:])


def _albert_rep(rng, rank, full_block=False):
    """3x3 octonion Hermitian matrix of known Jordan rank, as a matrix of
    8-tuples: a 2x2 block [[a, z], [conj z, b]] in rows 0-1 and c in
    position 2-2.  The block has rank one when ab = N(z) and rank two
    otherwise (always for rank 3, on request for rank 2), so the rank is
    the block's plus one when c != 0."""
    zero = (0,) * 8
    if rank == 0:
        return [[zero] * 3 for _ in range(3)]
    z = tuple(rng.randint(-3, 3) for _ in range(8))
    if not any(z):
        z = (1,) + z[1:]
    norm = sum(v * v for v in z)
    a = rng.choice([d for d in range(1, norm + 1) if norm % d == 0])
    b = norm // a
    full_block = rank == 3 or (rank == 2 and full_block)
    if full_block:
        b += rng.choice((1, 2, 3))
    block_rank = 2 if full_block else 1
    c = rng.randint(1, 4) if rank > block_rank else 0

    def s(v):
        return (v,) + (0,) * 7
    return [[s(a), z, zero], [_oct_conj(z), s(b), zero], [zero, zero, s(c)]]


def _congruence(mat, g):
    """g M g^T for a real 3x3 matrix g and an octonion Hermitian M."""
    out = [[None] * 3 for _ in range(3)]
    for k in range(3):
        for l in range(3):
            acc = [0] * 8
            for m in range(3):
                for n in range(3):
                    f = g[k][m] * g[l][n]
                    if f:
                        acc = [a + f * v for a, v in zip(acc, mat[m][n])]
            out[k][l] = tuple(acc)
    return out


def _albert_coords(mat, scale=1):
    """27 coordinates a, b, c, x, y, z of [[a, z, conj y], [., b, x],
    [y, ., c]]."""
    co = [mat[0][0][0], mat[1][1][0], mat[2][2][0]]
    co += list(mat[1][2]) + list(mat[2][0]) + list(mat[0][1])
    return [Fraction(v) * scale for v in co]


def _trace(mat):
    return mat[0][0][0] + mat[1][1][0] + mat[2][2][0]


def _matrix_rep(rng, m, n, k):
    """m x n rational matrix of rank k: P diag(d_1..d_k, 0..) Q with P, Q
    unimodular."""
    p, q = _unimodular(rng, m, 2 * m), _unimodular(rng, n, 2 * n)
    d = [_nonzero_fraction(rng) for _ in range(k)]
    return [[sum(p[i][t] * d[t] * q[t][j] for t in range(k))
             for j in range(n)] for i in range(m)]


_WEDGE3_REPS = {
    1: [[(0, 1, 2)]],
    2: [[(0, 1, 2), (3, 4, 5)], [(0, 1, 2), (0, 3, 4)]],
    3: [[(0, 1, 3), (0, 2, 4), (1, 2, 5)]],  # tangent-vector orbit
}
_TRIPLES = [(i, j, k) for i in range(6) for j in range(i + 1, 6)
            for k in range(j + 1, 6)]


def _wedge3_rep(rng, rank, which=0):
    """20 coordinates of sum_t c_t (g e_i)^(g e_j)^(g e_k) over the terms of
    orbit representative ``which`` of a rank: coordinates are 3x3 minors."""
    terms = _WEDGE3_REPS[rank][which]
    g = _unimodular(rng, 6, 10)
    co = [Fraction(0)] * 20
    for (i, j, k) in terms:
        c = _nonzero_fraction(rng)
        cols = [[g[r][i], g[r][j], g[r][k]] for r in range(6)]
        for t, (p, q, r) in enumerate(_TRIPLES):
            a, b, e = cols[p], cols[q], cols[r]
            det = (a[0] * (b[1] * e[2] - b[2] * e[1])
                   - a[1] * (b[0] * e[2] - b[2] * e[0])
                   + a[2] * (b[0] * e[1] - b[1] * e[0]))
            co[t] += c * det
    return co


def _omega(u, v):
    """Symplectic pairing with hyperbolic pairs (2i, 2i+1)."""
    return sum(u[2 * i] * v[2 * i + 1] - u[2 * i + 1] * v[2 * i]
               for i in range(len(u) // 2))


def _transvect(u, v, t):
    """Symplectic transvection u -> u + t omega(u, v) v."""
    f = t * _omega(u, v)
    return [a + f * b for a, b in zip(u, v)]


def _wedge(x, y):
    n = len(x)
    return [[x[i] * y[j] - x[j] * y[i] for j in range(n)] for i in range(n)]


def _coform_rep(rng, half, k):
    """Trace-free two-form on F^(2 half) that is a sum of k isotropic planes
    e_a ^ e_b (a, b never a hyperbolic pair), moved by symplectic
    transvections u -> u + t omega(u, v) v."""
    dim = 2 * half
    while True:
        idx = list(range(dim))
        rng.shuffle(idx)
        pairs = [(idx[2 * i], idx[2 * i + 1]) for i in range(half)]
        if all(a // 2 != b // 2 for a, b in pairs):
            break
    planes = []
    for a, b in pairs[:k]:
        x = [Fraction(0)] * dim
        y = [Fraction(0)] * dim
        x[a] = _nonzero_fraction(rng)
        y[b] = Fraction(1)
        planes.append((x, y))
    for _ in range(3):
        v = [rng.randint(-2, 2) for _ in range(dim)]
        t = rng.choice((-2, -1, 1, 2))
        planes = [tuple(_transvect(u, v, t) for u in plane)
                  for plane in planes]
    w = [[Fraction(0)] * dim for _ in range(dim)]
    for x, y in planes:
        for i, row in enumerate(_wedge(x, y)):
            w[i] = [a + b for a, b in zip(w[i], row)]
    return w


def _check_coform_pairs(w, pairs, k):
    if len(pairs) != k:
        return "coform rank %d != %d" % (len(pairs), k)
    n = len(w)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for x, y in pairs:
        x = [Fraction(v) for v in x]
        y = [Fraction(v) for v in y]
        if _omega(x, y):
            return "peeled plane is not isotropic"
        for i, row in enumerate(_wedge(x, y)):
            acc[i] = [a + b for a, b in zip(acc[i], row)]
    return _expect(acc == w, "peeled planes do not sum to the input")


class ExactRank:
    name = "exact-rank"
    KEEP_VERIFIED = True
    COLD_PROBES = True
    PROBES = ("python",)

    #: Operations of each kind per pass; every CLI_EVERY-th input of a kind
    #: goes through ``secant rank <shape> <file> --json``.  Sizes and ranks
    #: cycle through fixed lists, so the seed changes the values but hardly
    #: the amount of work.
    COUNTS = {"jordan": 400, "rank2_split": 120, "rank3_split": 120,
              "coform": 160, "wedge3": 160, "matrix": 160}
    CLI_EVERY = 8

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = workdir

    def _file(self, doc):
        self._nfiles += 1
        path = os.path.join(self.workdir, "t%05d.json" % self._nfiles)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def setup(self):
        import secant.jordan as jd
        import secant.ranks as rk
        rng = random.Random("exact-rank/%d" % self.seed)
        self._nfiles = 0
        ops = []

        def cli_due(i):
            return i % self.CLI_EVERY == self.CLI_EVERY - 1

        def albert(coords):
            return jd.AlbertElement.from_coords(coords)

        for i in range(self.COUNTS["jordan"]):
            k = i % 4
            mat = _congruence(_albert_rep(rng, k, full_block=i % 8 == 2),
                              _unimodular(rng, 3, 4))
            co = _albert_coords(mat, _nonzero_fraction(rng))
            if cli_due(i):
                path = self._file({"shape": "jordan", "dims": [27],
                                   "coords": [str(v) for v in co]})
                ops.append(("cli.rank",
                            lambda p=path: _cli(["rank", "jordan", p, "--json"]),
                            lambda out, k=k: _expect(out["rank"] == k,
                                                     "jordan rank via CLI")))
            else:
                x = albert(co)
                ops.append(("jordan_rank", lambda x=x: jd.jordan_rank(x),
                            lambda out, k=k: _expect(
                                out == k, "jordan rank %s != %d" % (out, k))))
        for i in range(self.COUNTS["rank2_split"]):
            g = _unimodular(rng, 3, 4)
            p = _congruence(_albert_rep(rng, 1), g)
            corner = [[(0,) * 8] * 3 for _ in range(3)]
            corner[2][2] = (rng.randint(1, 4),) + (0,) * 7
            q = _congruence(corner, g)
            tp, tq = _trace(p), _trace(q)
            # tr(q) p - tr(p) q: two rank-one pieces, trace zero, rank 2
            mixed = [[tuple(tq * a - tp * b for a, b in zip(p[r][c], q[r][c]))
                      for c in range(3)] for r in range(3)]
            x = albert(_albert_coords(mixed))
            ops.append(("rank2_split", lambda x=x: jd.rank2_split(x),
                        lambda sp, x=x: _expect(
                            sp.plus + sp.minus == x
                            and not sp.plus.is_zero() and not sp.minus.is_zero()
                            and sp.plus.adjugate().is_zero()
                            and sp.minus.adjugate().is_zero(),
                            "rank-2 split postcondition")))
        for i in range(self.COUNTS["rank3_split"]):
            mat = _congruence(_albert_rep(rng, 3), _unimodular(rng, 3, 4))
            x = albert(_albert_coords(mat, _nonzero_fraction(rng)))
            sub = "rank3/%d/%d" % (self.seed, i)
            ops.append(("rank3_split",
                        lambda x=x, s=sub: jd.rank3_split(x, random.Random(s)),
                        lambda sp, x=x: _expect(
                            sp.piece + sp.residual == x
                            and not sp.piece.is_zero()
                            and sp.piece.adjugate().is_zero()
                            and sp.residual.det3() == 0,
                            "rank-3 split postcondition")))
        halves = (2, 3, 4, 6)
        for i in range(self.COUNTS["coform"]):
            half = halves[i % 4]
            k = 1 + (i // 4) % half
            w = _coform_rep(rng, half, k)
            if cli_due(i):
                path = self._file({"shape": "coform", "dims": [2 * half],
                                   "coords": [str(v) for row in w for v in row]})
                ops.append(("cli.rank",
                            lambda p=path: _cli(["rank", "coform", p, "--json"]),
                            lambda out, w=w, k=k: _check_coform_pairs(
                                w, [[[Fraction(s) for s in x],
                                     [Fraction(s) for s in y]]
                                    for x, y in out["certificate"]["pairs"]],
                                k) if out["rank"] == k else "coform CLI rank"))
            else:
                ops.append(("coform", lambda w=w: rk.coform_rank_decompose(w),
                            lambda dec, w=w, k=k: _check_coform_pairs(
                                w, dec.pairs, k)))
        for i in range(self.COUNTS["wedge3"]):
            k = (1, 2, 2, 3)[i % 4]
            co = _wedge3_rep(rng, k, which=int(i % 4 == 2))
            if cli_due(i):
                path = self._file({"shape": "wedge3", "dims": [6],
                                   "coords": [str(v) for v in co]})
                ops.append(("cli.rank",
                            lambda p=path: _cli(["rank", "wedge3", p, "--json"]),
                            lambda out, k=k: _expect(out["rank"] == k,
                                                     "wedge3 rank via CLI")))
            else:
                ops.append(("wedge3", lambda co=co: rk.wedge3_c6_rank(co),
                            lambda out, k=k: _expect(
                                out == k, "wedge3 rank %s != %d" % (out, k))))
        for i in range(self.COUNTS["matrix"]):
            m, n = 2 + i % 6, 2 + (i // 6) % 6
            k = 1 + (i // 36) % min(m, n)
            mat = _matrix_rep(rng, m, n, k)
            flat = [v for row in mat for v in row]
            low = indep.rank_mod_p(indep.clear_denominators(mat),
                                   indep.LARGE_PRIME)
            if cli_due(i):
                path = self._file({"shape": "matrix", "dims": [m, n],
                                   "coords": [str(v) for v in flat]})
                ops.append(("cli.rank",
                            lambda p=path: _cli(["rank", "matrix", p, "--json"]),
                            lambda out, k=k, low=low: _expect(
                                out["rank"] == k >= low, "matrix rank via CLI")))
            else:
                t = rk.Tensor(shape="matrix", dims=[m, n], coords=flat)
                ops.append(("matrix", lambda t=t: rk.rank_of_tensor(t)[0],
                            lambda out, k=k, low=low: _expect(
                                out == k >= low,
                                "matrix rank %s, built %d, mod-p bound %d"
                                % (out, k, low))))
        return ops


# ---------------------------------------------------------------------------
# oracle workloads


def _check_layers(table, want, label):
    got = table.layer_counts()
    return _expect(got == want, "%s layers %s != closed form %s"
                   % (label, got, want))


def _sample_codes(rng, p, d, count):
    return [rng.randrange(1, p ** d) for _ in range(count)]


def _check_segre(table, m, n, codes):
    p = table.prime
    bad = _check_layers(table, indep.matrix_layer_counts(p, m, n),
                        "segre-%dx%d" % (m, n))
    if bad:
        return bad
    for code in codes:
        v = indep.digits(code, p, m * n)
        rows = [v[i * n:(i + 1) * n] for i in range(m)]
        if table.rank_of_code(code) != indep.rank_mod_p(rows, p):
            return "segre rank of code %d differs from matrix rank" % code
    return None


class Oracle:
    name = "oracle"
    KEEP_VERIFIED = False
    COLD_PROBES = False
    PROBES = ("python", "numpy")

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        rng = random.Random("oracle/%d" % self.seed)
        segre = _sample_codes(rng, 3, 12, 400)
        quad = _sample_codes(rng, 3, 8, 400)
        self.table = None
        self.gr36_ranks = None
        return [
            ("oracle.segre-3x4", lambda: self._table("segre-3x4", 3),
             lambda t: _check_segre(t, 3, 4, segre)),
            ("oracle.quadric-8", lambda: self._table("quadric-8", 3),
             lambda t: self._check_quadric(t, quad)),
            ("cli.oracle",
             lambda: _cli(["oracle", "segre-3x3", "--prime", "3", "--check",
                           "--threads", str(THREADS), "--json"]),
             self._check_cli),
            ("oracle.gr3-6", self._gr36, self._check_gr36),
            ("oracle.cache", self._round_trip, self._check_round_trip),
        ]

    @staticmethod
    def _table(family, p):
        import secant.oracle as orc
        return orc.bfs_rank_table(orc.enumerate_cone_points(family, p),
                                  threads=THREADS)

    def _gr36(self):
        self.table = self._table("gr3-6", 2)
        return self.table

    @staticmethod
    def _check_quadric(table, codes):
        bad = _check_layers(table, indep.quadric_layer_counts(3, 8), "quadric-8")
        if bad:
            return bad
        for code in codes:
            want = 1 if indep.split_form_value(indep.digits(code, 3, 8), 3) == 0 \
                else 2
            if table.rank_of_code(code) != want:
                return "quadric rank of code %d != %d" % (code, want)
        return None

    @staticmethod
    def _check_cli(out):
        layers = {int(k): v for k, v in out["layer_counts"].items()}
        check = out["check"]
        return _expect(layers == indep.matrix_layer_counts(3, 3, 3)
                       and check["rank1_layer_is_cone"]
                       and check["closed_form"]["agrees"],
                       "oracle segre-3x3 CLI check")

    def _check_gr36(self, table):
        """The whole table: rank 1 on the 1395 decomposable 3-vectors, rank
        2 on the other nonzero sums of two of them, rank 3 on the rest of
        the 2^20, computed apart from the program once per process."""
        import numpy as np
        if self.gr36_ranks is None:
            planes = np.array(sorted(indep.wedge3_f2_planes()), dtype=np.int64)
            if len(planes) != indep.gaussian_binomial(6, 3, 2):
                return "%d 3-planes of F_2^6" % len(planes)
            want = np.zeros(1 << 20, dtype=np.uint8)
            for code in planes:
                want[planes ^ code] = 2
            want[want == 0] = 3
            want[planes] = 1
            want[0] = 0
            self.gr36_ranks = want
        if np.array_equal(table.ranks, self.gr36_ranks):
            return None
        return "gr3-6 layers %s != %s" % (
            table.layer_counts(),
            dict(enumerate(np.bincount(self.gr36_ranks).tolist())))

    def _round_trip(self):
        """Save the gr3-6 table into a fresh directory, then load it back
        through rank_table with SECANT_CACHE_DIR pointing there."""
        import secant.oracle as orc
        cache = os.path.join(self.workdir, "cache")
        shutil.rmtree(cache, ignore_errors=True)
        os.makedirs(cache)
        stem = os.path.join(cache, "oracle_gr3-6_p2_v%d" % orc.TABLE_VERSION)
        self.table.save(stem)
        os.environ["SECANT_CACHE_DIR"] = cache
        try:
            return orc.rank_table("gr3-6", 2, threads=THREADS)
        finally:
            del os.environ["SECANT_CACHE_DIR"]

    def _check_round_trip(self, loaded):
        import numpy as np
        # a cache miss would recompute and write files under another name
        files = sorted(os.listdir(os.path.join(self.workdir, "cache")))
        same = (len(files) == 2 and loaded is not self.table
                and np.array_equal(loaded.ranks, self.table.ranks))
        return _expect(same and loaded.layer_counts()
                       == self.table.layer_counts(),
                       "cached gr3-6 table differs")


WORKLOADS = {cls.name: cls for cls in (LieClassify, ExactRank, Oracle)}
