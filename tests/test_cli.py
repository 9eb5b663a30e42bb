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
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uacg.cli as cli_mod
import uacg.closedform as closedform_mod
import uacg.verification as verification_mod
from uacg.cli import (
    EXIT_BAD_ARGS,
    EXIT_NO_CLOSED_FORM,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from uacg.analysis import _classify_all, classify, find_borderenergetic_alphas
from uacg.blocks import _energy_floors
from uacg.closedform import ALPHA_GRID, complete_energy, energy_report
from uacg.graphs import DENSE_ORDER_LIMIT, GraphSpec, parse_spec_label
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


def namespace_items(args) -> list[tuple]:
    """vars(args) in order, each value with its type; nan compares equal."""
    return [(k, type(v), "nan" if v != v else v) for k, v in vars(args).items()]


@pytest.fixture(autouse=True)
def direct_parse_equals_argparse(monkeypatch):
    """Every argv a test here hands main that _parse_exact takes parses to
    the namespace a freshly built argparse parser gives, attribute order
    included (JSON inputs are written in that order)."""
    real = cli_mod._parse_exact

    def checked(argv):
        args = real(argv)
        if args is not None:
            fresh = cli_mod._build_parser.__wrapped__().parse_args(argv)
            assert namespace_items(args) == namespace_items(fresh), argv
        return args

    monkeypatch.setattr(cli_mod, "_parse_exact", checked)


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

    @pytest.mark.parametrize("which", [2, 3])
    def test_root_table_equals_fixture_cell_for_cell(self, which):
        # Every root is the exact one correctly rounded, so every printed
        # cell, energies included, equals the reference's as a float.
        _, out, _ = run_cli(["table", "--which", str(which)])
        rows = [list(row.values()) for row in csv.DictReader(StringIO(out))]
        want = [list(row.values()) for row in read_fixture(f"table{which}.csv")]
        assert len(rows) == len(want)
        for got_row, want_row in zip(rows, want):
            assert list(map(float, got_row)) == list(map(float, want_row)), (got_row, want_row)

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

    @pytest.mark.parametrize(
        "end, step, rows",
        [
            ("0.10000000000000002", "1e-17", 2),
            ("0.10000000000000002", "1e-20", 2),
            ("0.1000000000001", "1e-14", 11),
        ],
    )
    def test_tiny_step_adds_no_rows_past_the_guard(self, end, step, rows, monkeypatch):
        # The loop's slack past alpha-end is at most half a step, not 1e-12,
        # so a tiny step stops there.  A step below the float spacing rounds
        # onto the alpha before it, which is priced once: one row for
        # alpha-start and one for alpha-end, at 1e-17 and at 1e-20 alike.
        priced = []

        def spy(spec, alphas):
            priced.extend(alphas)
            return _classify_all(spec, alphas)

        monkeypatch.setattr(cli_mod, "_classify_all", spy)
        code, out, _ = run_cli(
            ["sweep", "--family", "complete", "--n", "5", "--alpha-start", "0.1",
             "--alpha-end", end, "--step", step]
        )
        assert code == EXIT_OK
        assert len(priced) == len(out.splitlines()) - 1 == rows
        assert rows <= (float(end) - 0.1) / float(step) + 2
        assert priced == sorted(set(priced)) and priced[-1] == float(end)

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


@pytest.fixture
def spied(monkeypatch):
    """(calls, built): every validator call, as (name, value) in call order,
    through every module's binding of _check_alpha, _check_tol and
    _check_unit_sum, and the args of every EnergyReport built."""
    calls, built = [], []

    def spy(name, real):
        return lambda x, *a, **k: calls.append((name, x)) or real(x, *a, **k)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "uacg"]
    for module in modules:
        for name in ("_check_alpha", "_check_tol", "_check_unit_sum"):
            if name in vars(module):
                monkeypatch.setattr(module, name, spy(name, vars(module)[name]))
    report = closedform_mod.EnergyReport
    monkeypatch.setattr(
        closedform_mod, "EnergyReport", lambda *a, **k: built.append((a, k)) or report(*a, **k)
    )
    return calls, built


# A spec on each route: edgeless, complete, regular, closed form, blocks.
ROUTED = [GraphSpec("complete", 9, True), GraphSpec("complete", 9), GraphSpec("uacg", 10, True),
          GraphSpec("uacg", 9, True), GraphSpec("uacg", 15)]


class TestOneCheckPerInput:
    """An EnergyReport is built only where energy_report returns one, each
    alpha is checked once by the public call it enters, and the private
    solvers under those calls check nothing again."""

    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_tables_build_no_report_and_check_no_alpha(self, spied, which):
        # ALPHA_GRID and the root finder's own floats take no check
        calls, built = spied
        assert run_cli(["table", "--which", which, "--format", "csv"])[0] == EXIT_OK
        assert built == []
        assert [c for c in calls if c[0] != "_check_tol"] == []

    @pytest.mark.parametrize("family, n", [("complement-uacg", 9), ("uacg", 15), ("uacg", 10)])
    def test_sweeps_build_no_report_and_check_each_alpha_once(self, spied, family, n):
        calls, built = spied
        argv = ["sweep", "--family", family, "--n", str(n), "--alpha-start", "0",
                "--alpha-end", "0.9", "--step", "0.1", "--format", "csv"]
        code, out, _ = run_cli(argv)
        assert code == EXIT_OK and built == []
        rows = len(out.splitlines()) - 1
        assert [name for name, _ in calls] == ["_check_tol"] + ["_check_alpha"] * rows

    @pytest.mark.parametrize("spec", ROUTED, ids=str)
    def test_each_public_call_checks_each_alpha_once(self, spied, spec):
        calls, built = spied
        energy_report(spec, 0.3)
        assert calls == [("_check_alpha", 0.3)] and len(built) == 1
        calls.clear()
        classify(spec, 0.3)  # tol first, as before
        assert calls == [("_check_tol", 1e-6), ("_check_alpha", 0.3)] and len(built) == 1
        for batch in (ALPHA_GRID, (0.5, 0.25, 0.5), ()):
            calls.clear()
            _classify_all(spec, batch, 1e-3)
            assert calls == [("_check_tol", 1e-3)] + [("_check_alpha", a) for a in batch]
        assert len(built) == 1

    def test_the_dense_oracle_and_the_floor_check_nothing(self, spied):
        calls, _ = spied
        rows = list(verification_mod._dense(range(2, 40), (0.0, 0.3, 1.0)))
        assert len(rows) == 2 * 38
        for comp in (False, True):
            assert _energy_floors(GraphSpec("uacg", 105, comp), (0.0, 0.5, 0.9)).shape == (3,)
        assert calls == []


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
        # plain argv never need the parser; the first fallback builds it, once
        cli_mod._build_parser.cache_clear()
        for _ in range(20):
            code, _, _ = run_cli(["energy", "--family", "uacg", "--n", "9", "--alpha", "0.3"])
            assert code == EXIT_OK
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (0, 0)
        for _ in range(3):
            code, _, _ = run_cli(["energy", "--family", "uacg", "--n=9", "--alpha", "0.3"])
            assert code == EXIT_OK
        info = cli_mod._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

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


def sample_values(opt) -> list[str]:
    """Argument strings _parse_exact takes for opt: each choice, or one value."""
    if opt.choices is not None:
        return [str(c) for c in opt.choices]
    return {int: ["15"], float: ["0.25"]}[opt.type]


def plain_argvs() -> list[list[str]]:
    """For every command: its required options alone, each other option
    added with each of its values, and every option given in reverse order."""
    argvs = []
    for name, command in cli_mod._COMMANDS.items():
        required = [[o.flag, sample_values(o)[0]] for o in command.options if o.required]
        base = [name, *(tok for pair in required for tok in pair)]
        argvs.append(base)
        for opt in command.options:
            if not opt.required:
                argvs += [[*base, opt.flag, value] for value in sample_values(opt)]
        every = [[o.flag, sample_values(o)[-1]] for o in reversed(command.options)]
        argvs.append([name, *(tok for pair in every for tok in pair)])
    return argvs


def argparse_only(monkeypatch, argv) -> tuple[int, str, str]:
    """run_cli(argv) with every argv parsed by a freshly built argparse parser."""
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_parse_exact", lambda argv: None)
        cli_mod._build_parser.cache_clear()
        try:
            return run_cli(argv)
        finally:
            cli_mod._build_parser.cache_clear()


class TestDirectParse:
    """main parses the plain form `command --flag value ...` from _COMMANDS
    without argparse; any other argv goes to the argparse parser."""

    @pytest.mark.parametrize(
        "argv", [argv for argv, _, _ in golden_calls()] + plain_argvs(), ids=" ".join
    )
    def test_namespace_equals_argparse(self, argv):
        args = cli_mod._parse_exact(argv)
        assert args is not None
        fresh = cli_mod._build_parser.__wrapped__().parse_args(argv)
        assert namespace_items(args) == namespace_items(fresh)
        assert list(vars(args))[0] == "command" and list(vars(args))[-1] == "func"

    def test_every_option_is_generated(self):
        flags = {(argv[0], tok) for argv in plain_argvs() for tok in argv if tok.startswith("--")}
        assert flags == {
            (name, o.flag) for name, c in cli_mod._COMMANDS.items() for o in c.options
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["-h"],
            ["--version"],
            [],
            ["energy", "-h"],
            ["sweep", "--help"],
            ["energy", "--family", "uacg", "--n=15", "--alpha", "0.3"],
            ["energy", "--fam", "uacg", "--n", "15", "--alpha", "0.3"],
            ["energy", "--family", "uacg", "--n", "15", "--alpha", "-0.3"],
            ["energy", "--family", "uacg", "--n", "15", "--n", "9", "--alpha", "0.3"],
            ["energy", "--family", "uacg", "--alpha", "0.3"],
            ["energy", "--family", "uacg", "--n", "15", "--alpha", "0.3", "--bogus", "1"],
            ["energy", "--family", "uacg", "--n", "15", "--alpha"],
            ["energy", "--family", "petersen", "--n", "15", "--alpha", "0.3"],
            ["energy", "--family", "uacg", "--n", "1.5", "--alpha", "0.3"],
            ["table", "--which", "4"],
            ["table", "--which", "1", "extra"],
            ["bogus", "--n", "9"],
        ],
        ids=repr,
    )
    def test_other_forms_print_what_argparse_prints(self, monkeypatch, argv):
        assert cli_mod._parse_exact(argv) is None
        assert run_cli(argv) == argparse_only(monkeypatch, argv)

    def test_fallback_forms_that_parse_run_the_command(self, monkeypatch):
        plain = run_cli(["energy", "--family", "uacg", "--n", "15", "--alpha", "0.3"])
        assert plain[0] == EXIT_OK
        assert run_cli(["energy", "--family", "uacg", "--n=15", "--alpha", "0.3"]) == plain
        assert run_cli(["energy", "--fam", "uacg", "--n", "15", "--alpha", "0.3"]) == plain
        code, out, err = run_cli(["energy", "--family", "uacg", "--n", "15", "--alpha", "-0.3"])
        assert (code, out) == (EXIT_BAD_ARGS, "") and "alpha must lie in" in err

    def test_main_none_reads_sys_argv(self, monkeypatch):
        argv = ["energy", "--family", "uacg", "--n", "9", "--alpha", "0.3"]
        monkeypatch.setattr("sys.argv", ["uacg", *argv])
        assert run_cli(None) == run_cli(argv)
        monkeypatch.setattr("sys.argv", ["uacg", "--version"])
        assert run_cli(None) == run_cli(["--version"])


def old_round_floats(obj):
    """The writer's former float rounding, applied before json.dumps."""
    if isinstance(obj, float):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, dict):
        return {k: old_round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_round_floats(v) for v in obj]
    return obj


def json_oracle(record) -> str:
    return json.dumps(
        {
            "command": record.command,
            "inputs": old_round_floats(record.inputs),
            "results": old_round_floats(record.results),
            "version": record.version,
        },
        indent=2,
    )


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonWriter:
    """OutputRecord.to_json writes, in one pass, the bytes json.dumps(...,
    indent=2) wrote after rounding every float to 12 significant digits."""

    @pytest.mark.parametrize(
        "results",
        [
            {"x": float("nan"), "y": float("inf"), "z": -float("inf"), "w": -0.0},
            {"flags": [True, False, None], "n": 10**30, "neg": -7, "zero": 0},
            {"empty": [], "none": {}, "nested": [[], {}, [[]]]},
            {"pairs": ((1.5, 2), (-0.25, 1)), "t": ()},
            {"name": "K\u00e4fer \u2014 \U0001f600 \"q\" \\ \n\t\x00"},
            {"rows": [{"alpha": 0.1 + 0.2, "energy": 1 / 3, "verdict": "neither"},
                      {"alpha": 1e-300, "energy": 123456789012345.6, "verdict": "x"}]},
            {"np": np.float64(2.0) / 3.0, "big": 1e20, "tiny": 5e-324, "round": 0.5},
            {},
        ],
        ids=repr,
    )
    def test_equals_json_dumps_of_rounded_floats(self, results):
        record = cli_mod.OutputRecord(
            command="spectrum", inputs={"alpha": 0.3, "n": 9, "family": "uacg"}, results=results
        )
        assert record.to_json() == json_oracle(record)

    @given(inputs=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4),
           results=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps_on_generated_values(self, inputs, results):
        record = cli_mod.OutputRecord(command="sweep", inputs=inputs, results=results)
        assert record.to_json() == json_oracle(record)

    @pytest.mark.parametrize("bad", [np.int64(3), np.float32(0.5), {1, 2}, b"x"], ids=repr)
    def test_rejects_what_json_dumps_rejects(self, bad):
        record = cli_mod.OutputRecord(command="energy", inputs={}, results={"v": [bad]})
        with pytest.raises(TypeError):
            json_oracle(record)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            record.to_json()
