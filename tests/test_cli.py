"""Command line driver: grammar, exit codes, formats, determinism."""

import io
import json
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nalab import cli, engine
from nalab.catalog import catalog_algebra
from nalab.cli_io import parse_structured, run_capture


def run(*argv):
    return run_capture(list(argv))


class TestBasicCommands:
    def test_list(self):
        code, out = run("list")
        assert code == 0
        assert "P" in out and "dim 8" in out

    def test_list_structured(self):
        code, out = run("list", "--format", "structured")
        data = parse_structured(out)
        assert code == 0
        assert data["schema_version"] == "1"
        names = [a["name"] for a in data["algebras"]]
        assert names == ["R", "C", "H", "O", "*C", "*H", "*O",
                         "**C", "**H", "**O", "P"]

    def test_show(self):
        code, out = run("show", "H")
        assert code == 0 and "dim 4" in out

    def test_check_holds(self):
        code, out = run("check", "H", "--identity", "1,1,2")
        assert code == 0
        assert "holds (symbolic)" in out

    def test_check_fails_exit_1(self):
        code, out = run("check", "*H", "--identity", "1,1,1")
        assert code == 1
        assert "fails" in out

    def test_check_multilinear(self):
        code, out = run("check", "H", "--identity", "2,2,1",
                        "--backend", "multilinear")
        assert code == 0 and "multilinear" in out

    def test_predicate(self):
        code, out = run("predicate", "O", "--name", "alternative")
        assert code == 0 and "True" in out

    def test_predicate_bound_mode(self):
        code, out = run("predicate", "H", "--name", "power_commutative",
                        "--bound", "4")
        assert code == 0 and "bounded(4)" in out

    def test_degree(self):
        code, out = run("degree", "*H")
        assert code == 0 and "degree(*H) = 2" in out

    def test_units(self):
        code, out = run("units", "*H")
        assert code == 0
        assert "right: none" in out

    def test_division(self):
        code, out = run("division", "H", "--trials", "10")
        assert code == 0 and "invertible" in out

    def test_polarize_all_components(self):
        code, out = run("polarize", "1", "1", "2")
        assert code == 0
        assert "(1.1.2.1)" in out and "(1.1.2.3)" in out

    def test_polarize_m3(self):
        code, out = run("polarize", "2", "2", "2", "--m", "3")
        assert code == 0
        assert "(x.y, x.y, x.y)" in out

    def test_report(self):
        code, out = run("report", "C", "--trials", "20")
        assert code == 0
        assert "overall: consistent" in out


class TestErrors:
    def test_unknown_algebra(self):
        code, _ = run("show", "definitely-not-an-algebra")
        assert code == 2

    def test_bad_identity(self):
        code, _ = run("check", "H", "--identity", "1,1,3")
        assert code == 2
        code, _ = run("check", "H", "--identity", "x")
        assert code == 2

    def test_bad_subcommand(self):
        code, _ = run("frobnicate")
        assert code == 2

    def test_bad_polarize_m(self):
        code, _ = run("polarize", "1", "1", "1", "--m", "5")
        assert code == 2

    def test_unknown_property(self):
        code, _ = run("predicate", "H", "--name", "nope")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("division", "H", "--trials", "0"),
        ("report", "H", "--trials", "0"),
        ("report", "H", "--bound", "0"),
        ("predicate", "H", "--name", "power_commutative", "--bound", "-3"),
    ], ids=lambda a: " ".join(a[:1] + a[-2:]))
    def test_counts_below_one(self, argv, capsys):
        code, out = run(*argv)
        assert code == 2 and out == ""
        assert "must be at least 1" in capsys.readouterr().err

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def exhausted(self, *args):
            raise MemoryError("Unable to allocate 32.0 TiB for an array")

        monkeypatch.setattr(engine.MultilinearEngine, "multilinearization",
                            exhausted)
        # the catalog H is shared across tests: a verdict kept on it would
        # answer without the patched kernel
        monkeypatch.setattr(catalog_algebra("H"), "_verdicts", {})
        code, out = run("check", "H", "--identity", "2,2,2",
                        "--backend", "multilinear")
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "32.0 TiB" in lines[0] and "--backend symbolic" in lines[0]

    def test_refused_before_allocating_exits_2(self, tmp_path, capsys):
        # one out index of f_1 of (2,2,2) at dim 64 is 64^6 entries: the
        # estimate exceeds physical memory and nothing is allocated
        path = tmp_path / "sparse64.json"
        path.write_text(json.dumps({
            "name": "sparse64", "dim": 64, "field": "Q",
            "basis": [f"e{i}" for i in range(64)],
            "constants": [[0, 0, 0, "1"], [1, 2, 3, "-1/2"]]}))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out = run("check", str(path), "--identity", "2,2,2",
                            "--backend", "multilinear")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "physical memory" in lines[0]
        assert "--backend symbolic" in lines[0]
        assert peak < 2 ** 26
        assert time.perf_counter() - start < 30

    @pytest.mark.parametrize("backend", ("symbolic", "multilinear"))
    def test_prime_too_large_for_residue_products_exits_2(
            self, backend, tmp_path, monkeypatch, capsys):
        # products of a dim-2 algebra with constants near 10^12 pass 2^62;
        # with a 31-bit prime no residue product is exact in float64
        rows = [[i, j, k, str(10 ** 12 + 7 * i + 3 * j + k)]
                for i in range(2) for j in range(2) for k in range(2)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "dim": 2, "field": "Q",
                                    "basis": ["e0", "e1"],
                                    "constants": rows}))
        monkeypatch.setattr(engine, "_PRIMES", [2 ** 31 - 1])
        code, out = run("check", str(path), "--identity", "1,2,2",
                        "--backend", backend)
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "too wide" in lines[0]

    def test_malformed_file(self, tmp_path, capsys):
        def spec(**fields):
            return json.dumps({"name": "bad", "dim": 1, "field": "Q",
                               "basis": ["e"], "constants": [],
                               **fields}).encode()

        bad = tmp_path / "bad.json"
        for content in (b"{oops", b"\xff\xfe{}", spec(dim="two"),
                        spec(constants=[["a", 0, 0, "1"]]),
                        spec(constants=[[0, 0, 0, "1"], [0, 0, 0, "2"]]),
                        spec(dim=1.9), spec(dim=True),
                        spec(constants=[[0.9, 0, 0, "1"]]),
                        spec(conjugation=5), spec(basis=[["e"]]),
                        spec(dim=2, basis="ab"), spec(name="\ud800"),
                        spec(conjugation=[["zz", "1/0"], ["q"]]),
                        spec(conjugation=[["1/0"]]),
                        spec(conjugation=[["1+1*sqrt3"]]),
                        spec(field="Q(sqrt 3)",
                             constants=[[0, 0, 0, "1+1*sqrt5"]])):
            bad.write_bytes(content)
            code, _ = run("show", str(bad))
            assert code == 2, content
            assert "Traceback" not in capsys.readouterr().err
        code, _ = run("show", str(tmp_path))
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_file(self, tmp_path, capsys):
        """JSON nested past the parser's recursion limit is a malformed
        file (exit 2), not a failed assertion (exit 1)."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out = run("show", str(deep))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: malformed algebra file: ")
        assert "nested too deeply" in err and "Traceback" not in err


class TestFileLoading:
    def test_load_user_algebra(self, tmp_path):
        spec = {
            "name": "pauli-free", "dim": 2, "field": "Q",
            "basis": ["e", "t"],
            "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                          [1, 0, 1, "1"], [1, 1, 0, "1/2"]],
        }
        path = tmp_path / "user.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out = run("units", str(path))
        assert code == 0
        code, out = run("degree", str(path))
        assert code == 0 and "= 2" in out

    @pytest.mark.parametrize("conjugation", [
        [["zz", "1/0"], ["q"]], [["zz"]], [["1/0"]], [["1+1*sqrt3"]]],
        ids=["shape", "scalar", "zero-denominator", "sqrt-in-Q"])
    def test_malformed_conjugation(self, tmp_path, capsys, conjugation):
        spec = {"name": "c", "dim": 1, "field": "Q", "basis": ["e"],
                "constants": [[0, 0, 0, "1"]], "conjugation": conjugation}
        path = tmp_path / "conj.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, out = run("units", str(path))
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert "conjugation" in err and "Traceback" not in err
        spec["conjugation"] = [["1"]]
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _ = run("units", str(path))
        assert code == 0

    def test_zero_denominator_constant(self, tmp_path):
        spec = {"name": "z", "dim": 1, "field": "Q", "basis": ["e"],
                "constants": [[0, 0, 0, "1/0"]]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _ = run("units", str(path))
        assert code == 2

    def test_constants_beyond_int64(self, tmp_path):
        spec = {"name": "wide", "dim": 2, "field": "Q", "basis": ["e", "f"],
                "constants": [[0, 0, 0, "99999999999999999999999"],
                              [0, 1, 1, "1"], [1, 0, 1, "1"],
                              [1, 1, 0, "-1"]]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        verdicts = set()
        for backend in ("symbolic", "multilinear"):
            code, out = run("check", str(path), "--identity", "1,1,2",
                            "--backend", backend, "--format", "structured")
            assert code in (0, 1)
            verdicts.add(parse_structured(out)["holds"])
        assert len(verdicts) == 1


NEAR_VALID = {
    "name": "pauli-free", "dim": 2, "field": "Q", "basis": ["e", "t"],
    "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                  [1, 1, 0, "1/2"]],
    "conjugation": [["1", "0"], ["0", "-1"]],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["Q", "Q(sqrt 3)", "1", "-1/2", "1+1*sqrt3", "1/0"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@st.composite
def mutated_specs(draw):
    """NEAR_VALID with one field, one constant or one constant slot replaced
    by an arbitrary JSON value (or removed), or raw bytes."""
    fields = sorted(NEAR_VALID) + ["properties"]
    kind = draw(st.sampled_from(fields + ["drop", "constant", "slot",
                                          "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    data = json.loads(json.dumps(NEAR_VALID))
    if kind in fields:
        data[kind] = draw(json_values)
    elif kind == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif kind == "constant":
        data["constants"][draw(st.integers(0, 3))] = draw(json_values)
    else:
        data["constants"][draw(st.integers(0, 3))][draw(st.integers(0, 3))] \
            = draw(json_values)
    return json.dumps(data).encode()


class TestExitCodeFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=mutated_specs())
    def test_units_exits_0_or_2(self, tmp_path, content):
        path = tmp_path / "fuzz.json"
        path.write_bytes(content)
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main(["units", str(path)])
        except SystemExit as exc:
            code = exc.code
            assert code == 2
        assert code in (0, 2), (content, err.getvalue())


class TestStructuredDeterminism:
    CASES = (
        ("check", "H", "--identity", "1,2,1", "--format", "structured"),
        ("polarize", "1", "2", "2", "--format", "structured"),
        ("units", "*C", "--format", "structured"),
        ("division", "C", "--trials", "7", "--seed", "11",
         "--format", "structured"),
        ("report", "C", "--trials", "10", "--format", "structured"),
    )

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical(self, argv):
        code1, out1 = run(*argv)
        code2, out2 = run(*argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_text_and_structured_agree(self):
        _, text = run("check", "*H", "--identity", "1,1,1")
        _, struct = run("check", "*H", "--identity", "1,1,1",
                        "--format", "structured")
        data = parse_structured(struct)
        assert data["holds"] is False
        assert "fails" in text

    def test_structured_reparses_to_facts(self):
        from nalab.algebra import degree
        from nalab.catalog import catalog_algebra
        _, out = run("degree", "*H", "--format", "structured")
        data = parse_structured(out)
        assert data["degree"] == degree(catalog_algebra("*H"))
        _, out = run("units", "P", "--format", "structured")
        data = parse_structured(out)
        assert data["left"] is None and data["right"] is None


class TestPaperVerifyCli:
    def test_fast_criteria(self):
        code, out = run("paper-verify", "--criteria", "1,2,3,4")
        assert code == 0
        assert "[PASS] criterion 1" in out
        assert "FAIL" not in out

    def test_structured(self):
        code, out = run("paper-verify", "--criteria", "3",
                        "--format", "structured")
        data = parse_structured(out)
        assert code == 0 and data["all_passed"] is True

    def test_bad_criteria(self):
        code, _ = run("paper-verify", "--criteria", "abc")
        assert code == 2
