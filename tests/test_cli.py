"""Command-line behavior: flows, file formats, exit codes, grid CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fcckit.cli import (
    EXIT_BUDGET,
    EXIT_FAILURE,
    EXIT_FORMAT,
    EXIT_OK,
    GridSpec,
    main,
    parse_function_spec,
    parse_range_list,
    run_experiment_grid,
)
from fcckit.errors import ArgumentError, DimensionError
from fcckit.formats import parse_scheme_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE_CAP = 512 * 2**20


def run_capped(*argv):
    """The CLI in a child process whose address space the child caps at
    512 MiB, so a command that builds a q^k table ends in MemoryError
    there instead of exhausting the test host."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))\n"
        "from fcckit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestConstructEncodeDecode:
    def test_construct_or_and_encode(self, tmp_path, capsys):
        scheme_path = tmp_path / "or.scheme"
        code, out, _ = run(
            capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(scheme_path),
        )
        assert code == EXIT_OK
        assert "or_scheme" in out
        code, out, _ = run(capsys, "encode", "--in", str(scheme_path), "1", "0", "1")
        assert code == EXIT_OK
        assert out.strip() == "1 0 1 1 1"

    def test_construct_rs_writes_linear_scheme(self, tmp_path, capsys):
        path = tmp_path / "rs.scheme"
        code, out, _ = run(
            capsys, "construct", "rs", "--q", "7", "--k", "3", "--t", "2",
            "--out", str(path),
        )
        assert code == EXIT_OK
        assert "[7,3,5]_7" in out
        scheme = parse_scheme_file(path.read_text())
        assert scheme.kind == "linear"
        assert (scheme.q, scheme.k, scheme.r) == (7, 3, 4)

    def test_construct_bch(self, capsys):
        code, out, _ = run(capsys, "construct", "bch", "--k", "4", "--t", "1")
        assert code == EXIT_OK
        assert "r=3" in out

    def test_decode_within_radius(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, _ = run(
            capsys, "decode", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "1", "0", "0", "1", "1", "0",
        )
        assert code == EXIT_OK
        assert "label=1" in out
        assert "within_radius=true" in out

    def test_decode_beyond_radius_strict_exit_1(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, _, err = run(
            capsys, "decode", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "1", "1", "1", "0", "0", "0",
        )
        assert code == EXIT_FAILURE
        assert "distance 2" in err

    def test_decode_best_effort(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, _ = run(
            capsys, "decode", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "1", "--no-strict",
            "1", "1", "0", "0", "0",
        )
        assert code == EXIT_OK
        assert "within_radius=false" in out


class TestVerifySearch:
    def test_verify_pass(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, _ = run(
            capsys, "verify", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "1",
        )
        assert code == EXIT_OK
        assert out.startswith("pass")

    def test_verify_fail_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scheme"
        bad.write_text("table 2 1 2\n0 0\n0 0\n")
        code, out, _ = run(
            capsys, "verify", "--in", str(bad), "--function", "or",
            "--q", "2", "--k", "1", "--t", "1",
        )
        assert code == EXIT_FAILURE
        assert out.startswith("fail")

    def test_verify_with_function_file(self, tmp_path, capsys):
        scheme = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "2", "--t", "1",
            "--out", str(scheme))
        func = tmp_path / "f.func"
        func.write_text("2 2\n0\n1\n1\n1\n")
        code, out, _ = run(
            capsys, "verify", "--in", str(scheme), "--function", str(func),
            "--t", "1",
        )
        assert code == EXIT_OK

    def test_search_writes_verifying_witness(self, tmp_path, capsys):
        witness = tmp_path / "w.scheme"
        code, out, _ = run(
            capsys, "search", "--function", "or", "--q", "2", "--k", "2",
            "--t", "1", "--out", str(witness),
        )
        assert code == EXIT_OK
        assert "r=2" in out
        code, out, _ = run(
            capsys, "verify", "--in", str(witness), "--function", "or",
            "--q", "2", "--k", "2", "--t", "1",
        )
        assert code == EXIT_OK

    def test_verify_budget_counts_pairs_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bch.scheme"
        run(capsys, "construct", "bch", "--k", "16", "--t", "3", "--out", str(path))
        code, out, err = run(
            capsys, "verify", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "16", "--t", "3",
        )
        assert code == EXIT_BUDGET
        assert out == ""
        assert "message pairs" in err

    def test_search_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "search", "--function", "identity", "--q", "2", "--k", "3",
            "--t", "2", "--budget", "40",
        )
        assert code == EXIT_BUDGET
        assert "nodes" in err

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FCC_BUDGET", "40")
        code, _, _ = run(
            capsys, "search", "--function", "identity", "--q", "2", "--k", "3",
            "--t", "2",
        )
        assert code == EXIT_BUDGET
        # explicit flag beats the environment
        code, _, _ = run(
            capsys, "search", "--function", "identity", "--q", "2", "--k", "3",
            "--t", "2", "--budget", "100000",
        )
        assert code == EXIT_OK


class TestLargeK:
    """Built-in functions at k = 60 build no 2^60 table: each command
    reaches its own budget gate and exits 3 with one line."""

    @pytest.fixture(scope="class")
    def bch60(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bch60") / "bch60.scheme"
        code, out, err = run_capped(
            "construct", "bch", "--k", "60", "--t", "3", "--out", str(path)
        )
        assert (code, err) == (EXIT_OK, "")
        return path, 60 + int(out.split("r=")[1])

    @pytest.mark.parametrize(
        "command, unit",
        [("verify", "message pairs"), ("decode", "codewords"), ("simulate", "codewords"),
         ("search", "nodes")],
    )
    def test_builtin_at_k60_exits_3_with_one_line(self, bch60, command, unit):
        path, n = bch60
        argv = [command, "--function", "hamming_weight", "--q", "2", "--k", "60", "--t", "3"]
        if command != "search":
            argv += ["--in", str(path)]
        if command == "decode":
            argv += ["0"] * n
        code, out, err = run_capped(*argv)
        assert (code, out) == (EXIT_BUDGET, ""), err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert unit in err

    def test_grid_at_k60_writes_budget_rows(self):
        # the rows' lower_2t comes from the rule's image size, 2^60 labels
        # for identity, and each search is refused before it starts
        code, out, err = run_capped(
            "grid", "--q", "2", "--k", "60", "--t", "3",
            "--functions", "identity", "hamming_weight", "--no-timing",
        )
        assert (code, err) == (EXIT_OK, ""), err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(row[3], row[4], row[5], row[-2]) for row in rows] == [
            ("identity", "budget", "6", "4194305"),
            ("hamming_weight", "budget", "6", "4194305"),
        ]


class TestBoundsSimulate:
    def test_bounds_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "16", "--t", "2")
        assert code == EXIT_OK
        assert "lower_2t" in out and "4" in out
        assert "12.200134125" in out

    def test_bounds_csv(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "16", "--t", "2", "--csv")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("q,k,t,")

    def test_bounds_past_bch_degree_cap(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "2", "--k", "2000000", "--t", "1")
        assert code == EXIT_OK
        assert "bch_constructive  21" in out

    def test_bounds_conjectured_for_nonbinary(self, capsys):
        code, out, _ = run(capsys, "bounds", "--q", "5", "--k", "3", "--t", "1")
        assert code == EXIT_OK
        assert "(conjectured)" in out

    def test_simulate_clean(self, tmp_path, capsys):
        path = tmp_path / "rs.scheme"
        run(capsys, "construct", "rs", "--q", "7", "--k", "3", "--t", "2",
            "--out", str(path))
        code, out, _ = run(
            capsys, "simulate", "--in", str(path), "--function", "identity",
            "--q", "7", "--k", "3", "--t", "2", "--trials", "50", "--seed", "5",
        )
        assert code == EXIT_OK
        assert "failures=0" in out

    def test_simulate_detects_broken_scheme(self, tmp_path, capsys):
        bad = tmp_path / "bad.scheme"
        bad.write_text("table 2 1 2\n0 0\n0 0\n")
        code, out, _ = run(
            capsys, "simulate", "--in", str(bad), "--function", "or",
            "--q", "2", "--k", "1", "--t", "1", "--trials", "40", "--seed", "1",
        )
        assert code == EXIT_FAILURE

    def test_simulate_fixed_weight_zero(self, tmp_path, capsys):
        bad = tmp_path / "bad.scheme"
        bad.write_text("table 2 1 2\n0 0\n0 0\n")
        code, out, _ = run(
            capsys, "simulate", "--in", str(bad), "--function", "or",
            "--q", "2", "--k", "1", "--t", "1", "--trials", "20",
            "--weight", "0", "--seed", "1",
        )
        assert code == EXIT_OK  # error-free channel decodes even a weak scheme
        assert "failures=0" in out

    def test_simulate_deterministic(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "3", "--k", "2", "--t", "1",
            "--out", str(path))
        args = (
            "simulate", "--in", str(path), "--function", "or", "--q", "3",
            "--k", "2", "--t", "1", "--trials", "30", "--seed", "9",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "weight,code,want",
        [
            # weight t: every decode finds the sent codeword in its message ball
            ("2", EXIT_OK, "trials=30 successes=30 failures=0"),
            # weight t+1: a decode with no codeword within t runs the rings
            # on to the nearest codeword, with ties to the lowest rank
            ("3", EXIT_FAILURE, "trials=30 successes=8 failures=22"),
        ],
    )
    def test_simulate_rs_counts_pinned(self, tmp_path, capsys, weight, code, want):
        path = tmp_path / "rs.scheme"
        run(capsys, "construct", "rs", "--q", "7", "--k", "3", "--t", "2",
            "--out", str(path))
        got, out, _ = run(
            capsys, "simulate", "--in", str(path), "--function", "identity",
            "--q", "7", "--k", "3", "--t", "2", "--trials", "30", "--seed", "11",
            "--weight", weight,
        )
        assert (got, out.strip()) == (code, want)


class TestGrid:
    def test_rows_and_determinism(self, capsys):
        args = (
            "grid", "--q", "2", "--k", "2..3", "--t", "1",
            "--functions", "or", "identity", "--no-timing",
        )
        code, first, _ = run(capsys, *args)
        assert code == EXIT_OK
        code, second, _ = run(capsys, *args)
        assert first == second  # byte-identical
        lines = first.strip().split("\n")
        assert lines[0] == (
            "q,k,t,function_name,exact_r,lower_2t,eq2_upper,"
            "sphere_packing_r,mds_equality,nodes,seconds"
        )
        assert len(lines) == 5
        assert lines[1].startswith("2,2,1,or,2,2,")
        assert lines[2].startswith("2,2,1,identity,3,2,")

    def test_grid_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "grid", "--q", "5", "--k", "2", "--t", "1",
            "--functions", "identity", "--no-timing", "--out", str(out_path),
        )
        assert code == EXIT_OK
        text = out_path.read_text()
        assert "5,2,1,identity,2," in text
        assert ",true," in text  # mds_equality

    def test_bad_cell_writes_nothing(self, capsys):
        code, out, err = run(
            capsys, "grid", "--q", "2", "--k", "2", "--t", "1",
            "--functions", "or", "linear:x",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert len(err.strip().splitlines()) == 1

    def test_bad_cell_raises_at_call(self):
        # checked before the first row, without iterating
        with pytest.raises(ArgumentError):
            run_experiment_grid(
                GridSpec(qs=(2,), ks=(2,), ts=(1,), functions=("or", "linear:x"))
            )
        with pytest.raises(DimensionError):
            run_experiment_grid(GridSpec(qs=(2,), ks=(2,), ts=(1, -1), functions=("or",)))

    def test_budget_cells_recorded_not_fatal(self, capsys):
        code, out, _ = run(
            capsys, "grid", "--q", "2", "--k", "3", "--t", "1..2",
            "--functions", "identity", "--budget", "60", "--no-timing",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert any(",budget," in line for line in lines)

    def test_search_refused_before_any_work_keeps_its_row(self, capsys):
        # 7 messages after the first need 7 nodes, over the budget of 5:
        # the row reads budget and budget + 1 nodes, as a cut search's does
        code, out, _ = run(
            capsys, "grid", "--q", "2", "--k", "3", "--t", "1",
            "--functions", "identity", "or", "--budget", "5", "--no-timing",
        )
        assert code == EXIT_OK
        assert out.splitlines()[1:] == [
            "2,3,1,identity,budget,2,4.979684587,3,false,6,0.000",
            "2,3,1,or,budget,2,4.979684587,3,false,6,0.000",
        ]

    def test_rows_satisfy_proposition_invariant(self):
        spec = GridSpec(qs=(2, 3), ks=(2, 3), ts=(1,), functions=("or", "identity"))
        for row in run_experiment_grid(spec, timer=None):
            assert row.exact_r is not None
            assert row.exact_r >= row.lower_2t
            if row.q == 2 and row.eq2_upper is not None:
                assert row.exact_r < row.eq2_upper
            assert row.seconds == 0.0


class TestErrorsAndParsing:
    def test_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.func"
        bad.write_text("2 2\n0\n1\n")
        code, _, err = run(
            capsys, "search", "--function", str(bad), "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert "line" in err

    def test_superscript_digit_in_function_file_exit_2(self, tmp_path, capsys):
        # "²".isdigit() holds but int("²") raises
        scheme = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "2", "--t", "1",
            "--out", str(scheme))
        func = tmp_path / "f.func"
        func.write_text("2 2\n0\n²\n1\n1\n", encoding="utf-8")
        code, out, err = run(
            capsys, "verify", "--in", str(scheme), "--function", str(func), "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: line 3: value: '²' is not a non-negative integer\n"

    def test_superscript_digit_in_scheme_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scheme"
        bad.write_text("table 2 1 2\n0 0\n² 0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "verify", "--in", str(bad), "--function", "or",
            "--q", "2", "--k", "1", "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: line 3: row: '²' is not a non-negative integer\n"

    def test_missing_scheme_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "encode", "--in", "/nonexistent/path.scheme", "1")
        assert code == EXIT_FORMAT

    def test_unwritable_output_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "construct", "or", "--q", "2", "--k", "2", "--t", "1",
            "--out", str(tmp_path / "no" / "such" / "dir" / "x.scheme"),
        )
        assert code == EXIT_FORMAT
        assert "cannot write" in err

    def test_builtin_needs_dimensions(self, capsys):
        code, _, err = run(capsys, "search", "--function", "or", "--t", "1")
        assert code == EXIT_FORMAT
        assert "--q" in err

    def test_field_too_small_exit_2(self, capsys):
        code, _, _ = run(capsys, "construct", "rs", "--q", "4", "--k", "3", "--t", "1")
        assert code == EXIT_FORMAT

    def test_construct_rs_requires_q(self, capsys):
        code, _, err = run(capsys, "construct", "rs", "--k", "3", "--t", "1")
        assert code == EXIT_FORMAT
        assert "--q" in err

    def test_parse_range_list(self):
        assert parse_range_list("2,3,4") == (2, 3, 4)
        assert parse_range_list("2..5") == (2, 3, 4, 5)
        assert parse_range_list("2,4..6,9") == (2, 4, 5, 6, 9)

    @pytest.mark.parametrize("text", ["a", "2..x", "2..", "3,5..2"])
    def test_malformed_range_list_exit_2(self, capsys, text):
        # a reversed range inside a list was silently dropped before
        with pytest.raises(ArgumentError):
            parse_range_list(text)
        code, out, err = run(
            capsys, "grid", "--q", text, "--k", "1", "--t", "0", "--functions", "or",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert len(err.splitlines()) == 1
        assert repr(text) in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("grid", "--q", "a", "--k", "1", "--t", "0", "--functions", "or"),
             "range list 'a': 'a' is not an integer or a..b"),
            (("grid", "--q", "2", "--k", "3..2", "--t", "0", "--functions", "or"),
             "range list '3..2': '3..2' is an empty range"),
            (("grid", "--q", ",", "--k", "1", "--t", "0", "--functions", "or"),
             "empty range list: ','"),
            (("search", "--function", "linear:x", "--q", "2", "--k", "1", "--t", "1"),
             "function spec 'linear:x': aux must be comma-separated integers"),
            (("search", "--function", "or", "--t", "1"),
             "builtin function 'or' needs --q and --k (or pass a file path)"),
            (("construct", "rs", "--k", "2", "--t", "1"), "construct rs needs --q"),
        ],
    )
    def test_argument_error_has_no_line(self, capsys, argv, message):
        # no file is involved, so no "line 1:" prefix
        code, out, err = run(capsys, *argv)
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == f"error: {message}\n"

    def test_non_integer_env_budget_has_no_line(self, capsys, monkeypatch):
        monkeypatch.setenv("FCC_BUDGET", "lots")
        code, out, err = run(
            capsys, "search", "--function", "or", "--q", "2", "--k", "2", "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: FCC_BUDGET is not an integer: 'lots'\n"

    def test_negative_trials_exit_2(self, tmp_path, capsys):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, err = run(
            capsys, "simulate", "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "1", "--trials", "-3",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: --trials must be non-negative, got -3\n"

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_budget_exit_2(self, capsys, monkeypatch, source):
        extra = ("--budget", "-1") if source == "flag" else ()
        if source == "env":
            monkeypatch.setenv("FCC_BUDGET", "-1")
        code, out, err = run(
            capsys, "search", "--function", "or", "--q", "2", "--k", "2", "--t", "1",
            *extra,
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: budget must be non-negative, got -1\n"

    def test_threshold_spec_with_aux(self, capsys):
        code, out, _ = run(
            capsys, "search", "--function", "threshold:2", "--q", "2", "--k", "3",
            "--t", "1",
        )
        assert code == EXIT_OK
        assert out.startswith("r=")

    def test_non_integer_aux_exit_2(self, capsys):
        code, out, err = run(
            capsys, "search", "--function", "linear:x", "--q", "2", "--k", "1",
            "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "linear:x" in err
        with pytest.raises(ArgumentError):
            parse_function_spec("linear:x", 2, 1)

    def test_threshold_extra_aux_exit_2(self, capsys):
        code, out, err = run(
            capsys, "search", "--function", "threshold:1,2", "--q", "2", "--k", "3",
            "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert "threshold" in err

    @pytest.mark.parametrize("spec", ["or:5", "identity:1,2,3"])
    def test_aux_on_aux_free_function_exit_2(self, tmp_path, capsys, spec):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, err = run(
            capsys, "verify", "--in", str(path), "--function", spec,
            "--q", "2", "--k", "3", "--t", "1",
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert spec.partition(":")[0] in err

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("verify", ()),
            ("decode", ("0", "0", "1", "1", "0")),
            ("simulate", ("--trials", "5")),
        ],
    )
    def test_negative_t_exit_2(self, tmp_path, capsys, command, extra):
        path = tmp_path / "or.scheme"
        run(capsys, "construct", "or", "--q", "2", "--k", "3", "--t", "1",
            "--out", str(path))
        code, out, err = run(
            capsys, command, "--in", str(path), "--function", "or",
            "--q", "2", "--k", "3", "--t", "-1", *extra,
        )
        assert code == EXIT_FORMAT
        assert out == ""
        assert err == "error: t must be non-negative, got -1\n"
