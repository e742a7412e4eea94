"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from secant.classifier import TABLE_RANK_CAP
from secant.cli import main
from secant.oracle import THREADS_CAP
from secant.ranks import SHAPES

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "table_rank8_golden.json")
LIE_GOLDEN = os.path.join(DATA, "lie_cli_golden.json")
RANK_GOLDEN = os.path.join(DATA, "rank_cli_golden.json")
ORACLE_GOLDEN = os.path.join(DATA, "oracle_cli_golden.json")


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestClassify:
    def test_tame_g2(self):
        code, out = run_cli("classify", "G2[1,0]")
        assert code == 0
        assert "tame" in out

    def test_wild_wedge3(self):
        code, out = run_cli("classify", "A5[0,0,1,0,0]")
        assert code == 0
        assert "wild" in out
        assert "certificate replays: True" in out

    def test_json_schema(self):
        code, out = run_cli("classify", "A5[0,0,1,0,0]", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "secant/classify/v1"
        assert doc["status"] == "wild"
        assert doc["certificate_replays"] is True
        assert doc["certificate"]["base_case"]

    def test_bad_descriptor_exit_1(self, capsys):
        code, _ = run_cli("classify", "Z9[1]")
        assert code == 1
        assert "Z9" in capsys.readouterr().err

    def test_trivial_module_exit_1(self, capsys):
        code, _ = run_cli("classify", "A2[0,0]")
        assert code == 1


@pytest.mark.parametrize("command", ["classify", "chop-tree"])
@pytest.mark.parametrize("text", [
    "E9[3,0,0,0,0,0,0,0,0]", "G3[1,1,0]", "D1[2]",
    "A1xE9[1|1,0,0,0,0,0,0,0,0]"])
def test_type_without_root_system_gets_no_verdict(command, text, capsys):
    # weights of height 2 and 3 are refused like those of height 1
    code, out = run_cli(command, text)
    err = capsys.readouterr().err
    assert code == 1
    assert out == ""
    assert "no root system" in err
    assert "Traceback" not in err


class TestRank:
    def write(self, tmp_path, doc):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_matrix(self, tmp_path):
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [2, 2],
            "coords": ["1", "0", "0", "1"]})
        code, out = run_cli("rank", "matrix", path, "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_wedge3_witness_file(self, tmp_path):
        coords = ["0"] * 20
        # lexicographic triple positions of the rank-3 witness
        from secant.ranks import WEDGE3_TRIPLES
        tidx = {t: i for i, t in enumerate(WEDGE3_TRIPLES)}
        coords[tidx[(0, 1, 3)]] = "1"
        coords[tidx[(0, 2, 4)]] = "-1"
        coords[tidx[(1, 2, 5)]] = "1"
        path = self.write(tmp_path, {
            "shape": "wedge3", "dims": [6], "coords": coords})
        code, out = run_cli("rank", "wedge3", path, "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 3

    def test_coform_certificate(self, tmp_path):
        # e0 wedge e2: skew, zero contraction with the interleaved form
        path = self.write(tmp_path, {
            "shape": "coform", "dims": [4],
            "coords": ["0", "0", "1", "0", "0", "0", "0", "0", "-1", "0",
                       "0", "0", "0", "0", "0", "0"]})
        code, out = run_cli("rank", "coform", path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["pairs"]

    def test_jordan(self, tmp_path):
        coords = ["1", "1", "0"] + ["0"] * 24  # diag(1, 1, 0)
        path = self.write(tmp_path, {
            "shape": "jordan", "dims": [27], "coords": coords})
        code, out = run_cli("rank", "jordan", path, "--json")
        assert code == 0
        assert json.loads(out)["rank"] == 2

    def test_shape_mismatch_exit_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [2, 2],
            "coords": ["1", "0", "0", "1"]})
        code, _ = run_cli("rank", "skew", path)
        assert code == 1
        assert "mismatch" in capsys.readouterr().err

    def test_jordan_shape_mismatch_exit_1(self, tmp_path, capsys):
        # jordan takes the message of every other shape
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [2, 2],
            "coords": ["1", "0", "0", "1"]})
        code, out = run_cli("rank", "jordan", path)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err == ("error: shape mismatch: file says 'matrix', "
                       "argument says 'jordan'\n")

    def test_coordinate_count_mismatch_exit_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [2, 3],
            "coords": ["1", "2", "3", "4", "5"]})
        code, out = run_cli("rank", "matrix", path)
        assert code == 1
        assert out == ""
        assert "needs 6 coords" in capsys.readouterr().err

    def test_missing_file_exit_1(self, capsys):
        code, _ = run_cli("rank", "matrix", "/does/not/exist.json")
        assert code == 1

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _ = run_cli("rank", "matrix", str(path))
        assert code == 1

    def test_float_coordinate_exit_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [1, 1], "coords": [0.1]})
        code, out = run_cli("rank", "matrix", path)
        assert code == 1
        assert out == ""
        assert "float" in capsys.readouterr().err

    def test_boolean_coordinate_exit_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "shape": "jordan", "dims": [27], "coords": [True] + [0] * 26})
        code, out = run_cli("rank", "jordan", path)
        assert code == 1
        assert out == ""
        assert "boolean" in capsys.readouterr().err

    def test_boolean_dims_exit_1(self, tmp_path, capsys):
        path = self.write(tmp_path, {
            "shape": "matrix", "dims": [True, 2], "coords": ["1", "2"]})
        code, out = run_cli("rank", "matrix", path)
        assert code == 1
        assert out == ""
        assert "dims" in capsys.readouterr().err


with open(RANK_GOLDEN) as _fh:
    _RANK_OUTPUTS = json.load(_fh)["outputs"]
#: input document by file name; a plain-text entry reuses the --json one's
_RANK_DOCS = {e["argv"][2]: e["doc"] for e in _RANK_OUTPUTS if "doc" in e}


def _golden_id(words, argv):
    return " ".join(words) + ("" if "--json" in argv else " text")


@pytest.mark.parametrize("entry", _RANK_OUTPUTS,
                         ids=lambda e: _golden_id(e["argv"][2:3], e["argv"]))
def test_rank_cli_golden(entry, tmp_path, monkeypatch):
    # the report names the file as given, so it is read from the working
    # directory under its recorded name
    monkeypatch.chdir(tmp_path)
    name = entry["argv"][2]
    (tmp_path / name).write_text(json.dumps(_RANK_DOCS[name]))
    code, out = run_cli(*entry["argv"])
    assert code == 0
    assert out == entry["stdout"]


def test_rank_cli_golden_covers_every_shape():
    for text in (False, True):
        assert {e["argv"][1] for e in _RANK_OUTPUTS
                if ("--json" not in e["argv"]) == text} == set(SHAPES)


def _bad_dims(shape):
    """Dims of the right length that the shape's dims rule refuses."""
    ok_dims = SHAPES[shape][0]
    for dims in ([5], [3], [2, 2]):
        if not ok_dims(dims):
            return dims
    raise AssertionError("no refused dims for %s" % shape)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("fault", ["dims", "count"])
def test_rank_rejects_each_shape_exit_1(shape, fault, tmp_path, capsys):
    # every shape refuses dims its rule does not take (jordan, which once
    # ignored its dims, included), and a coordinate count one short of
    # what its dims need
    good = next(e["doc"] for e in _RANK_OUTPUTS
                if e["argv"][1] == shape and "doc" in e)
    if fault == "dims":
        doc = dict(good, dims=_bad_dims(shape))
        message = "invalid dims %s for shape %s" % (doc["dims"], shape)
    else:
        doc = dict(good, coords=good["coords"][:-1])
        message = "needs %d coords, got %d" % (len(good["coords"]),
                                               len(doc["coords"]))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("rank", shape, str(path))
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_rank_quadric_refuses_one_coordinate(tmp_path, capsys):
    # x^2 on one coordinate has no nonzero isotropic vector: the dims rule
    # refuses it before any split is tried
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": "quadric", "dims": [1],
                                "coords": ["3"]}))
    code, out = run_cli("rank", "quadric", str(path))
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert "invalid dims [1] for shape quadric" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("coord", ["1e-999999999", "9e9999999"])
def test_rank_refuses_a_huge_decimal_exponent(coord, tmp_path, capsys):
    # Fraction(coord) would build 10 ** 999999999 or 9 * 10 ** 9999999
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"shape": "matrix", "dims": [1, 1],
                                "coords": [coord]}))
    start = time.perf_counter()
    code, out = run_cli("rank", "matrix", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert "bad rational coordinate" in err
    assert "Traceback" not in err


class TestChopTree:
    def test_wild_chain(self):
        code, out = run_cli("chop-tree", "E8[0,0,0,0,0,0,1,0]")
        assert code == 0
        assert "base case" in out
        assert "replays: True" in out

    def test_tame_has_no_chain(self):
        code, out = run_cli("chop-tree", "G2[1,0]")
        assert code == 0
        assert "no reduction chain" in out

    def test_json(self):
        code, out = run_cli("chop-tree", "E8[0,0,0,0,0,0,1,0]", "--json")
        doc = json.loads(out)
        assert doc["schema"] == "secant/chop-tree/v1"
        assert doc["status"] == "wild"
        assert doc["certificate"]["chain"]

    @pytest.mark.parametrize("command", ["chop-tree", "classify"])
    def test_rank_over_cap_exit_2_at_once(self, command, capsys):
        # a middle mark is wild with no registered base case, so only the
        # chopping search could certify it
        rank = TABLE_RANK_CAP + 1
        marks = ["0"] * rank
        marks[rank // 2] = "1"
        start = time.perf_counter()
        code, out = run_cli(command, "A%d[%s]" % (rank, ",".join(marks)))
        assert code == 2
        assert out == ""
        assert "cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 1


class TestWitness:
    def test_sp6(self):
        code, out = run_cli("witness", "sp6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 3
        assert doc["contraction_is_zero"] is True
        assert doc["summand_planes_isotropic"] is True

    def test_sl6(self):
        code, out = run_cli("witness", "sl6", "--json")
        assert code == 0
        doc = json.loads(out)
        ranks = [r["rank"] for r in doc["representatives"]]
        assert ranks == [1, 2, 2, 3]

    def test_f4_requires_seed_in_json_mode(self, capsys):
        code, _ = run_cli("witness", "f4", "--json")
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    def test_f4_with_seed(self):
        code, out = run_cli("witness", "f4", "--json", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["stats"] == [4, 1]
        assert doc["membership_ok"] is True

    def test_f4_human(self):
        code, out = run_cli("witness", "f4")
        assert code == 0
        assert "tangent rank 21" in out

    def test_f4_large_prime_returns(self):
        # p = 3 (mod 4) has no isotropic octonion with two coordinates,
        # which once made the search scan all p^2 pairs
        start = time.perf_counter()
        code, _ = run_cli("witness", "f4", "--prime", "1000003",
                          "--budget", "1", "--seed", "0", "--json")
        assert code in (0, 2)
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("prime,budget", [
        ("100000000000000000000000000319", "1"),  # a 30-digit prime
        ("1000003", "200"),  # prime x budget over its cap
    ])
    def test_f4_caps_exit_2(self, capsys, prime, budget):
        start = time.perf_counter()
        code, _ = run_cli("witness", "f4", "--prime", prime,
                          "--budget", budget, "--seed", "0")
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_f4_budget_below_one_exit_1(self, budget):
        proc = subprocess.run(
            [sys.executable, "-m", "secant.cli", "witness", "f4",
             "--budget=" + budget, "--seed", "0"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "budget must be at least 1, got %s" % budget in proc.stderr
        assert "Traceback" not in proc.stderr


with open(LIE_GOLDEN) as _fh:
    _LIE_OUTPUTS = json.load(_fh)["outputs"]


@pytest.mark.parametrize("entry", _LIE_OUTPUTS, ids=lambda e: _golden_id(
    [a for a in e["argv"] if a != "--json"], e["argv"]))
def test_lie_cli_golden(entry, capsys):
    code, out = run_cli(*entry["argv"])
    assert code == entry.get("exit", 0)
    assert out == entry["stdout"]
    if "stderr" in entry:
        assert capsys.readouterr().err == entry["stderr"]


class TestOrbitDim:
    def test_long_root_small_types(self):
        code, out = run_cli("orbit-dim", "G2", "--element", "root", "--json")
        assert code == 0
        assert json.loads(out)["orbit_dim"] == 6
        code, out = run_cli("orbit-dim", "A1", "--element", "root", "--json")
        assert json.loads(out)["orbit_dim"] == 2

    def test_pair_class(self):
        code, out = run_cli("orbit-dim", "A3", "--element", "pair:0",
                            "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit_dim"] == 8
        assert doc["inner_product"] == "0"

    def test_unknown_pair_exit_1(self, capsys):
        code, _ = run_cli("orbit-dim", "G2", "--element", "pair:9")
        assert code == 1
        assert "available" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1/0", "x", ""])
    def test_bad_pair_value_exit_1(self, value):
        proc = subprocess.run(
            [sys.executable, "-m", "secant.cli", "orbit-dim", "E8",
             "--element", "pair:" + value], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "bad --element" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_huge_exponent_pair_value_exit_1(self, capsys):
        start = time.perf_counter()
        code, out = run_cli("orbit-dim", "A2", "--element",
                            "pair:1e-99999999")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert "bad --element 'pair:1e-99999999'" in err
        assert "Traceback" not in err

    def test_3a1_requires_e8(self, capsys):
        code, _ = run_cli("orbit-dim", "G2", "--element", "3a1")
        assert code == 1

    def test_bad_type_exit_1(self, capsys):
        code, _ = run_cli("orbit-dim", "Q5", "--element", "root")
        assert code == 1

    @pytest.mark.parametrize("type_", ["A9", "A100000"])
    def test_rank_over_cap_exit_2(self, capsys, type_):
        start = time.perf_counter()
        code, out = run_cli("orbit-dim", type_, "--element", "root")
        assert code == 2
        assert out == ""
        assert "cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 1

    def test_type_without_root_system_exit_1(self, capsys):
        code, out = run_cli("orbit-dim", "E9", "--element", "root")
        assert code == 1
        assert out == ""
        assert "no root system" in capsys.readouterr().err


class TestOracle:
    def test_gr2_4_with_check(self):
        code, out = run_cli("oracle", "gr2-4", "--prime", "2", "--check",
                            "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "secant/oracle/v1"
        assert doc["layer_counts"] == {"0": 1, "1": 35, "2": 28}
        assert doc["max_rank"] == 2
        assert doc["check"]["rank1_layer_is_cone"] is True
        assert doc["check"]["closed_form"]["agrees"] is True

    def test_segre_check(self):
        code, out = run_cli("oracle", "segre-2x2", "--prime", "3", "--check",
                            "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["check"]["closed_form"]["kind"] == "matrix rank"
        assert doc["check"]["closed_form"]["agrees"] is True

    @staticmethod
    def cached_table(tmp_path_factory, family, p):
        """A cached table, as (header, rank bytes)."""
        from secant.oracle import rank_table
        stem = str(tmp_path_factory.mktemp("cache") / "t")
        rank_table(family, p).save(stem)
        with open(stem + ".json") as fh, open(stem + ".bin", "rb") as fb:
            return json.load(fh), fb.read()

    @pytest.fixture(scope="class")
    def segre_4x5_table(self, tmp_path_factory):
        """The cached segre-4x5 table over F_2 (2^20 codes, 16 blocks of
        the check)."""
        return self.cached_table(tmp_path_factory, "segre-4x5", 2)

    @pytest.fixture(scope="class")
    def segre_3x3_f3_table(self, tmp_path_factory):
        """The cached segre-3x3 table over F_3, where the check compares
        the byte of each multiple with its representative's rank."""
        return self.cached_table(tmp_path_factory, "segre-3x3", 3)

    @staticmethod
    def check_flipped(tmp_path, monkeypatch, table, family, p, code,
                      message):
        # a cached table with one rank byte flipped, and a header whose
        # sha256 and layer counts match the flipped bytes
        import hashlib
        head, data = table
        data = bytearray(data)
        assert (data[code] == 1) == (message == "rank-1 layer")
        data[code] ^= 1
        counts = {str(r): data.count(r) for r in range(256) if r in data}
        stem = str(tmp_path / ("oracle_%s_p%d_v2" % (family, p)))
        with open(stem + ".bin", "wb") as fh:
            fh.write(data)
        with open(stem + ".json", "w") as fh:
            json.dump(dict(head, sha256=hashlib.sha256(data).hexdigest(),
                           counts=counts), fh)
        monkeypatch.setenv("SECANT_CACHE_DIR", str(tmp_path))
        with pytest.raises(AssertionError, match=message):
            run_cli("oracle", family, "--prime", str(p), "--check", "--json")

    @pytest.mark.parametrize("code,message", [
        (65, "closed-form"),             # a rank-2 code in the first block
        ((1 << 16) + 7, "closed-form"),  # past the first block boundary
        ((1 << 20) - 2, "closed-form"),  # next to the last code
        (1, "rank-1 layer"),             # a cone point
    ])
    def test_check_reports_flipped_rank_byte(self, tmp_path, monkeypatch,
                                             segre_4x5_table, code, message):
        self.check_flipped(tmp_path, monkeypatch, segre_4x5_table,
                           "segre-4x5", 2, code, message)

    @pytest.mark.parametrize("code,message", [
        (3 ** 8 + 1, "closed-form"),      # e_0 + e_8, a representative
        (2 * 3 ** 8 + 2, "closed-form"),  # its double, leading digit 2
        (2 * 3 ** 4 + 2, "closed-form"),  # the double of e_0 + e_4
        (1, "rank-1 layer"),              # a cone point
    ])
    def test_check_reports_flipped_rank_byte_odd_prime(
            self, tmp_path, monkeypatch, segre_3x3_f3_table, code, message):
        self.check_flipped(tmp_path, monkeypatch, segre_3x3_f3_table,
                           "segre-3x3", 3, code, message)

    def test_cap_exit_2(self, capsys):
        code, _ = run_cli("oracle", "spinor10", "--prime", "3")
        assert code == 2
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("family,p", [("gr2-100000", 2),
                                          ("gr2-20000", 13)])
    def test_huge_family_exit_2_at_once(self, family, p, capsys):
        # refused from its dimension alone, before p ** dim is taken
        start = time.perf_counter()
        code, _ = run_cli("oracle", family, "--prime", str(p))
        assert code == 2
        assert "cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 5

    def test_cache_dir_that_cannot_be_a_directory(self, tmp_path,
                                                   monkeypatch):
        # a file, or a path under one, is no cache: the table is computed
        # and nothing is written
        argv = ("oracle", "segre-2x2", "--prime", "2", "--json")
        want = run_cli(*argv)
        assert want[0] == 0
        blocker = tmp_path / "file"
        blocker.write_text("")
        for root in (blocker, blocker / "sub"):
            monkeypatch.setenv("SECANT_CACHE_DIR", str(root))
            assert run_cli(*argv) == want
        assert os.listdir(tmp_path) == ["file"]
        assert blocker.read_text() == ""

    def test_unknown_family_exit_1(self, capsys):
        code, _ = run_cli("oracle", "mystery-9", "--prime", "2")
        assert code == 1

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_threads_below_one_exit_1(self, bad, capsys):
        code, out = run_cli("oracle", "segre-2x2", "--prime", "2",
                            "--threads", bad)
        assert code == 1
        assert out == ""
        assert "threads must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [THREADS_CAP + 1, 10 ** 9])
    def test_threads_over_cap_exit_2(self, bad, capsys, monkeypatch):
        # refused before the family is enumerated, so no pool starts
        import secant.oracle
        monkeypatch.setattr(secant.oracle, "enumerate_cone_points", None)
        code, out = run_cli("oracle", "segre-2x2", "--prime", "2",
                            "--threads", str(bad))
        assert code == 2
        assert out == ""
        assert "over the %d cap" % THREADS_CAP in capsys.readouterr().err


with open(ORACLE_GOLDEN) as _fh:
    _ORACLE_OUTPUTS = json.load(_fh)["outputs"]


@pytest.mark.parametrize("entry", _ORACLE_OUTPUTS,
                         ids=lambda e: _golden_id(e["argv"][1:4], e["argv"]))
def test_oracle_cli_golden(entry):
    code, out = run_cli(*entry["argv"])
    assert code == 0
    assert out == entry["stdout"]


class TestTable:
    def test_golden_bytes(self):
        code, out = run_cli("table", "--max-rank", "8", "--format", "json")
        assert code == 0
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_markdown_shape(self):
        code, out = run_cli("table", "--max-rank", "3")
        assert code == 0
        assert out.startswith("| pair | verdict |")
        assert "`G2[1,0]`" in out

    def test_set_matches_transcription(self):
        with open(os.path.join(DATA, "tame_table_rank8.json")) as fh:
            want = set(json.load(fh)["rows"])
        code, out = run_cli("table", "--max-rank", "8", "--format", "json")
        got = {r["descriptor"] for r in json.loads(out)["rows"]}
        assert got == want

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_max_rank_below_one_exit_1(self, bad, capsys):
        code, out = run_cli("table", "--max-rank", bad)
        assert code == 1
        assert out == ""
        assert "--max-rank must be at least 1" in capsys.readouterr().err

    def test_max_rank_over_cap_exit_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out = run_cli("table", "--max-rank", str(TABLE_RANK_CAP + 1))
        assert code == 2
        assert out == ""
        assert "cap" in capsys.readouterr().err
        assert time.perf_counter() - start < 1

    def test_all_rows_tame(self):
        code, out = run_cli("table", "--max-rank", "4", "--format", "json")
        doc = json.loads(out)
        assert all(r["status"] == "tame" for r in doc["rows"])
        assert doc["count"] == len(doc["rows"])


class TestPlumbing:
    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        # main reuses one parser per process; a run of different commands,
        # errors and a cap in one process must read exactly like each
        # command run alone
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"shape": "matrix", "dims": [2, 3],
                                    "coords": ["1", "2", "3", "2", "4", "6"]}))
        calls = [
            ["rank", "matrix", str(path), "--json"],
            ["classify", "A5[0,0,1,0,0]"],
            ["classify", "Z9[1]"],
            ["oracle", "spinor10", "--prime", "3"],
            ["no-such-command"],
            ["classify", "G2[1,0]", "--json"],
            ["rank", "matrix", str(path)],
        ]
        in_process = []
        for _ in range(2):
            for argv in calls:
                code, out = run_cli(*argv)
                in_process.append((code, out, capsys.readouterr().err))
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "secant.cli"] + argv,
                capture_output=True, text=True)
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [c for c, _, _ in fresh] == [0, 0, 1, 2, 1, 0, 0]
        assert in_process == fresh + fresh

    def test_usage_error_exit_1(self, capsys):
        code = main(["no-such-command"])
        assert code == 1

    def test_subprocess_entry(self):
        # the module entry point works end to end in a real process
        proc = subprocess.run(
            [sys.executable, "-m", "secant.cli", "classify", "G2[1,0]"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "tame" in proc.stdout

    def test_numpy_imported_on_first_oracle_use(self, tmp_path):
        # commands that build no rank table run without numpy
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"shape": "matrix", "dims": [2, 2],
                                    "coords": ["1", "2", "2", "4"]}))
        code = (
            "import sys\n"
            "from secant import cli, oracle\n"
            "assert cli.main(['rank', 'matrix', sys.argv[1]]) == 0\n"
            "assert cli.main(['classify', 'E6[1,0,0,0,0,0]']) == 0\n"
            "assert 'numpy' not in sys.modules\n"
            "assert oracle.family_dim('segre-2x2') == 4\n"
            "assert cli.main(['oracle', 'segre-2x2', '--prime', '2']) == 0\n"
            "assert oracle.np is sys.modules['numpy']\n")
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_json_outputs_parse(self):
        for argv in (
            ["classify", "A5[0,0,1,0,0]", "--json"],
            ["witness", "sp6", "--json"],
            ["oracle", "segre-2x2", "--prime", "2", "--json"],
            ["table", "--max-rank", "2", "--json"],
            ["orbit-dim", "A2", "--element", "root", "--json"],
        ):
            code, out = run_cli(*argv)
            assert code == 0
            doc = json.loads(out)
            assert doc["schema"].startswith("secant/")
            assert doc["schema"].endswith("/v1")
