"""Tests of the benchmark's own machinery: inputs, instrumentation, oracle.

Run with: python -m pytest perfbench/tests
"""

import json
import sys

import pytest

import oracle
import run
import tracer
import workloads

import uacg
import uacg.cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    make = workloads.INPUTS[workload]
    assert make(7) == make(7)
    assert json.dumps(make(7)) == json.dumps(make(7))


@pytest.mark.parametrize("workload", ["roots", "queries"])
def test_other_seed_other_inputs_same_mix(workload):
    make = workloads.INPUTS[workload]
    a, b = make(1), make(2)
    assert a != b
    assert workloads.composition(workload, a).keys() == workloads.composition(workload, b).keys()
    assert len(a) == len(b)


def test_roots_mix_is_mostly_numeric_orders():
    mix = workloads.composition("roots", workloads.roots_inputs(3))
    assert mix["numeric"] > mix["specs"] / 2
    for item in workloads.roots_inputs(3):
        assert item["family"] in ("uacg", "complement-uacg")


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "uacg" or name.startswith("uacg.")
        for attr, value in vars(module).items()
    }


def test_instrument_wraps_every_namespace_and_restores():
    before = _bindings()
    original = uacg.linalg.symmetric_eigenvalues
    rec = tracer.Recorder()
    with tracer.instrument(rec) as patched:
        for module in (uacg.linalg, uacg.closedform, uacg.analysis, uacg.verification, uacg):
            assert module.symmetric_eigenvalues is not original
        assert uacg.numtheory.factorize is not before[("uacg.numtheory", "factorize")]
        assert uacg.cli.main is not before[("uacg.cli", "main")]
        assert len(patched) > len(tracer.FUNCTIONS)
        uacg.find_borderenergetic_alphas(uacg.GraphSpec("uacg", 9))
    assert _bindings() == before
    assert rec.calls["analysis.find_borderenergetic_alphas"] == 1
    assert rec.counters["analysis.find_borderenergetic_alphas.gap_evals"] > 1000


def test_instrument_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.instrument(tracer.Recorder()):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_self_time_excludes_children():
    rec = tracer.Recorder()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    tracer.perf_counter, saved = (lambda: next(clock)), tracer.perf_counter
    try:
        rec.call("outer", lambda: rec.call("inner", lambda: None, None, (), {}), None, (), {})
    finally:
        tracer.perf_counter = saved
    assert rec.total["outer"] == 10.0 and rec.self_time["outer"] == 8.0
    assert rec.total["inner"] == 2.0 and rec.self_time["inner"] == 2.0
    inner, outer = rec.spans
    assert inner[4] == outer[0] == 0 and outer[4] == -1


def test_oracle_flags_a_wrong_energy():
    spec = uacg.GraphSpec("uacg", 15)
    right = uacg.energy_report(spec, 0.3).energy
    assert oracle.check_energy("uacg", 15, 0.3, right, "x") == []
    found = oracle.check_energy("uacg", 15, 0.3, right + 1e-3, "x")
    assert len(found) == 1 and not found[0].startswith(oracle.KNOWN_DEFECT)


def test_oracle_flags_a_wrong_energy_in_cli_output():
    argv = ["energy", "--family", "complement-uacg", "--n", "45", "--alpha", "0.3"]
    q = {"cmd": "energy", "format": "json", "family": "complement-uacg", "n": 45,
         "alpha": 0.3, "argv": argv}
    code, out = workloads.run_op("queries", q)
    assert oracle.check_query(q, code, out, run.ROOT) == []
    doc = json.loads(out)
    doc["results"]["energy"] *= 1.001
    assert oracle.check_query(q, code, json.dumps(doc), run.ROOT)
    assert oracle.check_query(q, 2, out, run.ROOT)


def test_oracle_verdict_of_k_n_at_large_n():
    # K_n is borderenergetic with itself; at n ~ 1e5 the oracle's energy must
    # be exact to well below the 1e-6 verdict tolerance to say so.
    argv = ["sweep", "--family", "complete", "--n", "97728", "--alpha-start", "0.631",
            "--alpha-end", "0.831", "--step", "0.1", "--format", "csv"]
    q = {"cmd": "sweep", "format": "csv", "family": "complete", "n": 97728,
         "alpha_start": 0.631, "alpha_end": 0.831, "step": 0.1, "argv": argv}
    code, out = workloads.run_op("queries", q)
    assert "borderenergetic" in out
    assert oracle.check_query(q, code, out, run.ROOT) == []
    assert oracle.check_query(q, code, out.replace("borderenergetic", "hyperenergetic"), run.ROOT)


def test_oracle_tags_the_known_complement_convention():
    spec = uacg.GraphSpec("uacg", 9, complement=True)
    tabulated = uacg.energy_report(spec, 0.6).energy
    found = oracle.check_energy("complement-uacg", 9, 0.6, tabulated, "x")
    assert len(found) == 1 and found[0].startswith(oracle.KNOWN_DEFECT)
    assert oracle.check_energy("complement-uacg", 9, 0.0, tabulated, "x")[0].startswith("x")


def test_oracle_spectra_match_closed_forms():
    for label, n in (("unitary-cayley", 30), ("uacg", 30), ("complement-uacg", 28),
                     ("complete", 7), ("complement-unitary-cayley", 21), ("uacg", 27)):
        spec = uacg.parse_spec_label(label, n)
        closed, _ = uacg.spectrum_for(spec, 0.4, method="numeric")
        got = closed.values()
        want = oracle.alpha_spectrum(label, n, 0.4)
        assert abs(got - want).max() < 1e-8, (label, n)


def test_oracle_flags_a_missing_root():
    assert oracle.check_root_set("uacg", 9, [0.375]) == []
    assert oracle.check_root_set("uacg", 9, [])


def test_known_tag_needs_the_tabulated_formula_to_explain_a_missed_root():
    # n = 25: the tabulated complement gap crosses zero near alpha = 0.4386.
    assert oracle._tabulated_gap_changes_sign(25, 0.4, 0.45)
    assert not oracle._tabulated_gap_changes_sign(25, 0.75, 0.8)
    assert oracle._tabulated_gap_changes_sign(45, 0.75, 0.8)  # not a prime power
    found = oracle.check_root_set("complement-uacg", 25, [])
    missed = [p for p in found if "no root returned" in p]
    assert missed and all(p.startswith(oracle.KNOWN_DEFECT) for p in missed)
    # A uacg spec has no tabulated convention: the same miss is a plain finding.
    assert not oracle.check_root_set("uacg", 9, [])[0].startswith(oracle.KNOWN_DEFECT)


def test_oracle_flags_a_wrong_bound_report():
    item = {"family": "complement-uacg", "n": 21, "alpha": 0.3}
    roots, (observed, energy) = workloads.run_op("roots", item)
    where = "bound_report"
    assert oracle.check_bound_report("complement-uacg", 21, 0.3, observed, energy, where) == []
    assert oracle.check_bound_report("complement-uacg", 21, 0.3, observed, energy + 1e-3, where)
    index, value = observed[-1]
    shifted = observed[:-1] + ((index, value + 1e-4),)
    assert oracle.check_bound_report("complement-uacg", 21, 0.3, shifted, energy, where)


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_missing_checkout_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "roots", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_host_speed_scales_to_reference_seconds():
    speed = run.HostSpeed()
    speed.keep_up()
    assert len(speed.samples) == 1 and speed.samples[0] > 0
    speed.samples[:] = [2 * run.CALIB_REF_S] * 3
    assert speed.scale() == 0.5
