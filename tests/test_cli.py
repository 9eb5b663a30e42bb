"""Tests for the command-line interface.

All invocations go through main(argv) with stdout/stderr captured
explicitly (the suite runs with output capture disabled so that the
acceptance summary stays visible).  Golden-table comparisons are
numeric, not textual: the stored reference values are rounded
finitely, so regenerated output is compared cell by cell at the
documented tolerances.
"""

import csv
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import uacg.cli as cli_mod
from uacg.cli import (
    EXIT_BAD_ARGS,
    EXIT_NO_CLOSED_FORM,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from uacg.analysis import classify, find_borderenergetic_alphas
from uacg.closedform import ALPHA_GRID, complete_energy, energy_report
from uacg.graphs import DENSE_ORDER_LIMIT, parse_spec_label
from uacg.verification import CheckResult

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(args: list[str]) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def read_fixture(name: str) -> list[dict[str, str]]:
    with open(FIXTURES / name, newline="") as fh:
        return list(csv.DictReader(fh))


def failing_suite(scope, nmax):
    """Stands in for run_suite: one check that fails."""
    return [CheckResult(name="stub", passed=False, worst=1.0, cases=1, detail="forced failure")]


def golden_calls() -> list[tuple[list[str], str, int]]:
    """(argv, stdout, exit code) of each call in fixtures/cli_golden.txt.

    Each block is a '>>> ' line with the arguments, the expected stdout, and
    a '<<< exit N' line.
    """
    calls = []
    for block in (FIXTURES / "cli_golden.txt").read_text().split(">>> ")[1:]:
        call, rest = block.split("\n", 1)
        expected_out, exit_line = rest.rsplit("<<< exit ", 1)
        calls.append((call.split(), expected_out, int(exit_line)))
    return calls


class TestSpectrumCommand:
    def test_csv_order_9(self):
        code, out, _ = run_cli(
            ["spectrum", "--family", "uacg", "--n", "9", "--alpha", "0", "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "value,multiplicity"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        values = [float(v) for v, _ in rows]
        mults = [int(m) for _, m in rows]
        assert mults == [1, 1, 2, 4, 1]
        assert values[0] == pytest.approx(5.3589, abs=1e-4)
        assert values[-1] == pytest.approx(-3.3589, abs=1e-4)

    def test_json_complement_order_9(self):
        code, out, _ = run_cli(
            ["spectrum", "--family", "complement-uacg", "--n", "9", "--alpha", "0"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "spectrum"
        assert payload["results"]["method_used"] == "closed"
        assert payload["results"]["n"] == 9
        values = [v for v, _ in payload["results"]["pairs"]]
        assert values == [3.0, 2.0, 0.0, -1.0, -3.0]

    def test_closed_method_unavailable_exits_3(self):
        code, out, err = run_cli(
            ["spectrum", "--family", "uacg", "--n", "15", "--alpha", "0.5",
             "--method", "closed"]
        )
        assert code == EXIT_NO_CLOSED_FORM
        assert out == ""
        assert "error:" in err

    def test_auto_falls_back_to_numeric(self):
        code, out, _ = run_cli(
            ["spectrum", "--family", "uacg", "--n", "15", "--alpha", "0.5"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["method_used"] == "numeric"
        assert sum(m for _, m in payload["results"]["pairs"]) == 15

    def test_rejects_unknown_family(self):
        code, out, err = run_cli(
            ["spectrum", "--family", "petersen", "--n", "10", "--alpha", "0"]
        )
        assert code == EXIT_BAD_ARGS

    def test_rejects_complement_complete(self):
        code, _, _ = run_cli(
            ["spectrum", "--family", "complement-complete", "--n", "5", "--alpha", "0"]
        )
        assert code == EXIT_BAD_ARGS

    @pytest.mark.parametrize("n", ["9", "15"])
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_group_tol_exits_2_on_every_route(self, n, tol):
        # n=9 takes the closed form, which never groups; n=15 is numeric
        code, out, err = run_cli(
            ["spectrum", "--family", "uacg", "--n", n, "--alpha", "0", "--group-tol", tol]
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "tol must be positive and finite" in err

    def test_rejects_bad_order(self):
        code, _, err = run_cli(
            ["spectrum", "--family", "uacg", "--n", "1", "--alpha", "0"]
        )
        assert code == EXIT_BAD_ARGS
        assert "error:" in err

    @pytest.mark.parametrize("command", ["spectrum", "energy"])
    @pytest.mark.parametrize("n", [10**9 + 1, 10**20])
    def test_order_above_trial_division_limit_exits_2(self, command, n):
        # complete graphs need no factorization, yet share every family's bound
        argv = [command, "--family", "complete", "--alpha", "0.3", "--n"]
        code, out, err = run_cli(argv + [str(n)])
        assert (code, out) == (EXIT_BAD_ARGS, "")
        assert err.startswith("error: n must be <= 1000000000")
        code, out, _ = run_cli(argv + [str(10**9)])
        assert code == EXIT_OK
        assert out

    def test_dense_method_above_limit_exits_2(self):
        n = str(DENSE_ORDER_LIMIT + 1)
        code, out, err = run_cli(
            ["spectrum", "--family", "uacg", "--n", n, "--alpha", "0.5", "--method", "numeric"]
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "DENSE_ORDER_LIMIT" in err
        # The block route builds no dense matrix, so auto has no limit.
        code, out, _ = run_cli(["spectrum", "--family", "uacg", "--n", n, "--alpha", "0.5"])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["method_used"] == "numeric"


class TestEnergyCommand:
    def test_uacg_order_27(self):
        code, out, _ = run_cli(
            ["energy", "--family", "uacg", "--n", "27", "--alpha", "0.3"]
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["results"]["energy"] == pytest.approx(38.490, abs=1e-3)
        assert payload["results"]["method"] == "closed-form"
        assert payload["results"]["m"] == 234

    def test_complete_order_121(self):
        code, out, _ = run_cli(
            ["energy", "--family", "complete", "--n", "121", "--alpha", "0.5"]
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["results"]["energy"] == pytest.approx(120.0, abs=1e-9)

    def test_complement_order_625_near_one(self):
        code, out, _ = run_cli(
            ["energy", "--family", "complement-uacg", "--n", "625", "--alpha", "0.9999"]
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["results"]["energy"] == pytest.approx(699.180, abs=1e-3)

    def test_csv_format(self):
        code, out, _ = run_cli(
            ["energy", "--family", "uacg", "--n", "9", "--alpha", "0.375",
             "--format", "csv"]
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "family,n,alpha,m,shift,energy,method"
        cells = lines[1].split(",")
        assert cells[0] == "uacg" and cells[1] == "9"
        assert float(cells[5]) == pytest.approx(10.0, abs=1e-9)

    def test_alpha_one_rejected(self):
        code, _, err = run_cli(
            ["energy", "--family", "uacg", "--n", "9", "--alpha", "1"]
        )
        assert code == EXIT_BAD_ARGS
        assert "error:" in err


class TestVerifyCommand:
    def test_small_closedform_scope_passes(self):
        code, out, _ = run_cli(["verify", "--scope", "closedform", "--nmax", "30"])
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "all checks passed" in lines[-1]
        assert any("worst residual" in line for line in lines)

    def test_small_bounds_scope_passes(self):
        code, out, _ = run_cli(["verify", "--scope", "bounds", "--nmax", "21"])
        assert code == EXIT_OK
        assert "all checks passed" in out

    def test_nmax_above_dense_limit_exits_2(self):
        code, out, err = run_cli(
            ["verify", "--scope", "closedform", "--nmax", str(DENSE_ORDER_LIMIT + 1)]
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "DENSE_ORDER_LIMIT" in err

    def test_nmax_too_small_exits_2(self):
        code, _, err = run_cli(["verify", "--scope", "all", "--nmax", "2"])
        assert code == EXIT_BAD_ARGS
        assert "error:" in err

    def test_bad_scope_exits_2(self):
        code, _, _ = run_cli(["verify", "--scope", "everything", "--nmax", "30"])
        assert code == EXIT_BAD_ARGS

    def test_failed_check_exits_1(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "run_suite", failing_suite)
        code, out, _ = run_cli(["verify", "--scope", "all", "--nmax", "3"])
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL stub" in out
        assert "CHECKS FAILED" in out


class TestTableCommand:
    def test_table_2_contains_exact_anchor_row(self):
        code, out, _ = run_cli(["table", "--which", "2"])
        assert code == EXIT_OK
        assert "9,0.375,10,10" in out.splitlines()

    def test_table_1_cell_anchor(self):
        code, out, _ = run_cli(["table", "--which", "1"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(StringIO(out)))
        row = next(r for r in rows if r["family"] == "uacg" and r["n"] == "81")
        assert float(row["0.4"]) == pytest.approx(108.809, abs=2e-3)

    def test_table_1_matches_fixture_numerically(self):
        _, out, _ = run_cli(["table", "--which", "1"])
        got = {(r["family"], r["n"]): r for r in csv.DictReader(StringIO(out))}
        for want in read_fixture("table1.csv"):
            row = got[(want["family"], want["n"])]
            for col, cell in want.items():
                if col in ("family", "n"):
                    continue
                assert float(row[col]) == pytest.approx(float(cell), abs=2e-3), (
                    want["family"], want["n"], col,
                )

    def test_table_2_matches_fixture_numerically(self):
        _, out, _ = run_cli(["table", "--which", "2"])
        got = {r["n"]: r for r in csv.DictReader(StringIO(out))}
        for want in read_fixture("table2.csv"):
            row = got[want["n"]]
            assert float(row["alpha"]) == pytest.approx(float(want["alpha"]), abs=1e-9)
            assert float(row["energy"]) == pytest.approx(float(want["energy"]), abs=1e-8)
            assert float(row["complete_energy"]) == pytest.approx(
                float(want["complete_energy"]), abs=1e-8
            )

    def test_table_3_matches_fixture_numerically(self):
        _, out, _ = run_cli(["table", "--which", "3"])
        got = {r["n"]: r for r in csv.DictReader(StringIO(out))}
        for want in read_fixture("table3.csv"):
            row = got[want["n"]]
            assert float(row["alpha"]) == pytest.approx(float(want["alpha"]), abs=1e-9)
            assert float(row["energy"]) == pytest.approx(float(want["energy"]), abs=1e-8)

    def test_table_json_shape(self):
        code, out, _ = run_cli(["table", "--which", "3", "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["command"] == "table"
        assert len(payload["results"]["rows"]) == 9
        assert {r["n"] for r in payload["results"]["rows"]} == {
            9, 27, 81, 5, 25, 125, 625, 49, 121
        }


class TestSweepCommand:
    def test_uacg_energies_decrease(self):
        code, out, _ = run_cli(
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "0.9", "--step", "0.1"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(StringIO(out)))
        energies = [float(r["energy"]) for r in rows]
        assert len(energies) == 10
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_complement_order_9_not_monotone(self):
        code, out, _ = run_cli(
            ["sweep", "--family", "complement-uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "0.9", "--step", "0.1"]
        )
        rows = list(csv.DictReader(StringIO(out)))
        energies = [float(r["energy"]) for r in rows]
        want = [10.0, 9.8, 9.6, 9.4, 9.2, 9.0, 8.8, 8.6, 8.0 + 2.0 / 3.0, 9.0]
        assert energies == pytest.approx(want, abs=1e-3)
        assert any(a < b for a, b in zip(energies, energies[1:]))

    def test_degenerate_range_single_row(self):
        code, out, _ = run_cli(
            ["sweep", "--family", "complete", "--n", "5", "--alpha-start", "0.2",
             "--alpha-end", "0.3", "--step", "0.5"]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["alpha"]) == pytest.approx(0.2, abs=1e-12)
        assert rows[0]["verdict"] == "borderenergetic"

    def test_bad_range_exits_2(self):
        code, _, err = run_cli(
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0.5",
             "--alpha-end", "0.2", "--step", "0.1"]
        )
        assert code == EXIT_BAD_ARGS
        assert "error:" in err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_non_finite_step_exits_2(self, step):
        code, out, err = run_cli(
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "0.5", "--step", step]
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "step must be positive and finite" in err

    def test_too_many_points_exits_2(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "MAX_SWEEP_POINTS", 5)
        code, out, err = run_cli(
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "0.9", "--step", "0.1"]
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "more than 5 sweep steps" in err

    def test_end_at_one_rejected(self):
        code, _, _ = run_cli(
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "1", "--step", "0.1"]
        )
        assert code == EXIT_BAD_ARGS


class TestDeterminism:
    def test_byte_identical_reruns(self):
        for args in (
            ["table", "--which", "2"],
            ["spectrum", "--family", "uacg", "--n", "9", "--alpha", "0.3"],
            ["sweep", "--family", "uacg", "--n", "15", "--alpha-start", "0",
             "--alpha-end", "0.4", "--step", "0.2"],
        ):
            first = run_cli(args)
            second = run_cli(args)
            assert first == second


class TestGoldenOutput:
    def test_closed_and_regular_routes_byte_identical(self):
        """Replay the calls in fixtures/cli_golden.txt and compare byte for byte.

        Only closed-form and regular-shortcut outputs are stored:
        numeric-route digits depend on the BLAS build.
        """
        calls = golden_calls()
        assert len(calls) >= 30
        for argv, expected_out, expected_code in calls:
            code, out, _ = run_cli(argv)
            assert (code, out) == (expected_code, expected_out), argv


class TestBatchedGrids:
    """sweep and table price each grid in one call; their stdout must equal
    the text built from one classify or energy_report call per alpha, on the
    numeric route too (whose digits depend on the BLAS build, so they are
    compared in one process rather than stored in cli_golden.txt)."""

    @staticmethod
    def written(argv, header, lines, results):
        out = StringIO()
        with redirect_stdout(out):
            cli_mod._write(cli_mod._build_parser().parse_args(argv), header, lines, results)
        return out.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "family, n", [("uacg", 15), ("complement-uacg", 105), ("uacg", 1155)]
    )
    def test_sweep_equals_one_classify_per_alpha(self, family, n, fmt):
        argv = ["sweep", "--family", family, "--n", str(n), "--alpha-start", "0.05",
                "--alpha-end", "0.95", "--step", "0.05", "--format", fmt]
        spec = parse_spec_label(family, n)
        reports = [classify(spec, min(0.05 + k * 0.05, 0.95)) for k in range(19)]
        fmt12g = cli_mod._fmt12g
        expected = self.written(
            argv,
            "alpha,energy,complete_energy,verdict",
            (f"{fmt12g(r.alpha)},{fmt12g(r.energy)},{fmt12g(r.complete_energy)},{r.verdict}"
             for r in reports),
            lambda: {"rows": [
                {"alpha": r.alpha, "energy": r.energy, "complete_energy": r.complete_energy,
                 "verdict": r.verdict}
                for r in reports
            ]},
        )
        assert run_cli(argv) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_energy_table_equals_one_report_per_alpha(self, fmt):
        labels = [cli_mod._fmt12g(a) for a in ALPHA_GRID]
        rows = [
            (family, n, [f"{energy_report(parse_spec_label(family, n), a).energy:.3f}"
                         for a in ALPHA_GRID])
            for n in cli_mod.TABLE1_NS
            for family in ("uacg", "complement-uacg", "complete")
        ]
        argv = ["table", "--which", "1", "--format", fmt]
        expected = self.written(
            argv,
            "family,n," + ",".join(labels),
            (f"{family},{n}," + ",".join(cells) for family, n, cells in rows),
            lambda: {"alphas": labels, "rows": [
                {"family": family, "n": n, "energies": [float(c) for c in cells]}
                for family, n, cells in rows
            ]},
        )
        assert run_cli(argv) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("which", [2, 3])
    def test_root_tables_equal_one_report_per_root(self, which, fmt):
        ns, family = (
            (cli_mod.TABLE2_NS, "uacg") if which == 2 else (cli_mod.TABLE3_NS, "complement-uacg")
        )
        rows = []
        for n in ns:
            spec = parse_spec_label(family, n)
            for root in find_borderenergetic_alphas(spec):
                values = (root, energy_report(spec, root).energy, complete_energy(n, root))
                rows.append((n, *map(cli_mod._fmt_dec12, values)))
        assert rows
        argv = ["table", "--which", str(which), "--format", fmt]
        expected = self.written(
            argv,
            "n,alpha,energy,complete_energy",
            (",".join(map(str, row)) for row in rows),
            lambda: {"rows": [
                {"n": n, "alpha": float(a), "energy": float(e), "complete_energy": float(c)}
                for n, a, e, c in rows
            ]},
        )
        assert run_cli(argv) == (EXIT_OK, expected, "")


class TestWriter:
    """_write builds only the output of the format asked for."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_builds_only_the_chosen_format(self, fmt):
        def lines():
            assert fmt == "csv", "a JSON call formatted a CSV line"
            yield "1,2"

        def results():
            assert fmt == "json", "a CSV call built the JSON results"
            return {"x": 1.5}

        args = cli_mod._build_parser().parse_args(["table", "--which", "2", "--format", fmt])
        out = StringIO()
        with redirect_stdout(out):
            assert cli_mod._write(args, "a,b", lines(), results) == EXIT_OK
        if fmt == "csv":
            assert out.getvalue() == "a,b\n1,2\n"
        else:
            payload = json.loads(out.getvalue())
            assert payload["command"] == "table"
            assert payload["inputs"] == {"which": 2}
            assert payload["results"] == {"x": 1.5}


class TestVersionFlag:
    def test_version_exits_zero(self):
        code, out, _ = run_cli(["--version"])
        assert code == EXIT_OK
        assert out.startswith("uacg ")


class TestParserReuse:
    def test_parser_built_once_across_calls(self):
        cli_mod._build_parser.cache_clear()
        for _ in range(20):
            code, _, _ = run_cli(["energy", "--family", "uacg", "--n", "9", "--alpha", "0.3"])
            assert code == EXIT_OK
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_shared_parser_matches_fresh_parser(self, monkeypatch):
        """An argument error, --version and a failed verify leave nothing behind
        in the shared parser: every later call prints and exits as it does
        with a parser built for it alone."""
        monkeypatch.setattr(cli_mod, "run_suite", failing_suite)
        calls = [
            ["energy", "--family", "petersen", "--n", "9", "--alpha", "0"],
            ["--version"],
            ["verify", "--scope", "all", "--nmax", "3"],
            *(argv for argv, _, _ in reversed(golden_calls())),
            # Every option at its default, after calls that set them all.
            ["energy", "--family", "uacg", "--n", "9", "--alpha", "0.3"],
            ["sweep", "--family", "uacg", "--n", "9", "--alpha-start", "0",
             "--alpha-end", "0.9", "--step", "0.3"],
        ]
        cli_mod._build_parser.cache_clear()
        shared = [run_cli(argv) for argv in calls]
        assert cli_mod._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in shared[:3]] == [
            EXIT_BAD_ARGS, EXIT_OK, EXIT_VERIFY_FAILED,
        ]
        for argv, got in zip(calls, shared):
            cli_mod._build_parser.cache_clear()
            assert run_cli(argv) == got, argv
