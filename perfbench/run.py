"""Benchmark for the uacg package.

    python3 perfbench/run.py --workload verify|roots|queries|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/
and the reference tables from tests/fixtures/.  One process, one closed-loop
client: each call into the package waits for the previous one.  BLAS is
pinned to BLAS_THREADS threads before numpy loads.

A run of one workload:
1. set-up: SETUP_PROBES fresh processes each time `import uacg` plus the
   workload's warmup; setup_s is their median;
2. the timed phase: a fixed number of passes over the seeded inputs, untraced;
   wall_s is one pass with each op at its median time over the passes,
   latency_p50_ms the median op of that pass, latency_tail_ms taken over
   every sample (see tail), and peak_rss_mb is read after the first pass;
   every time (setup_s too) is scaled to the reference machine's idle speed
   by a kernel timed between the calls (HostSpeed), and the record keeps the
   unscaled figures;
3. with --trace 1, one more pass with every public function of the package
   wrapped (tracer.py), giving the per-layer metrics of one pass;
4. the oracle (oracle.py) checks the outputs, outside the timed region.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics, the end-to-end metrics with --trace 0 and the per-layer ones with
--trace 1.  The full record (environment, inputs, tail percentile, every
oracle finding) goes to perfbench/out/.  --workload all runs each workload
with --trace 1 in a child process and prints every metric of each.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # steadier than 2 on small eigensolves on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

# oracle.py loads numpy, so it is imported only where used: a setup probe
# must start its clock before numpy is first imported.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170
# Host speed (see HostSpeed): one sample per CALIB_EVERY_S of run time, and
# the median sample on the reference machine (2-core Xeon) when idle.
CALIB_EVERY_S = 0.25
CALIB_REF_S = 0.0075

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Raised:
    """Output of an op that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = repr(exc)

    def __eq__(self, other) -> bool:
        return isinstance(other, Raised) and other.text == self.text


class HostSpeed:
    """Times a fixed kernel that runs no uacg code, between the timed calls.

    The benchmark shares its host with other tenants, whose load slows every
    call of a run alike, by up to a third, for minutes at a time: longer than
    a run, so no statistic within a run removes it.  The kernel (small
    symmetric eigensolves and a Python loop, the two kinds of work uacg does)
    slows with it.  `scale` is CALIB_REF_S over the kernel's median time in
    this run; a time multiplied by it reads in seconds at the reference
    machine's idle speed.  A slower program still reads slower, since the
    kernel does not depend on it.
    """

    def __init__(self) -> None:
        import numpy as np

        a = np.random.default_rng(0).standard_normal((120, 120))
        self._matrix = a + a.T
        self._eigvalsh = np.linalg.eigvalsh
        self.samples: list[float] = []
        self._start = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(10):
            self._eigvalsh(self._matrix)
        acc = 0
        for i in range(10_000):
            acc += i * i
        self.samples.append(perf_counter() - start)

    def keep_up(self) -> None:
        """Take the samples due by now: one per CALIB_EVERY_S since start."""
        due = (perf_counter() - self._start) / CALIB_EVERY_S
        while len(self.samples) < due:
            self.sample()

    def scale(self) -> float:
        return CALIB_REF_S / statistics.median(self.samples)

    def record(self) -> dict:
        return {"samples": len(self.samples), "median_s": statistics.median(self.samples),
                "min_s": min(self.samples), "scale": self.scale()}


def missing_inputs() -> list[str]:
    needed = [SRC / "uacg" / "__init__.py"]
    needed += [ROOT / "tests" / "fixtures" / f"table{k}.csv" for k in (1, 2, 3)]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_uacg():
    sys.path.insert(0, str(SRC))
    import uacg
    import uacg.cli

    if Path(uacg.__file__).resolve().parent != SRC / "uacg":
        raise SystemExit(f"imported uacg from {uacg.__file__}, expected {SRC / 'uacg'}")
    return uacg


def setup_probe(workload: str) -> None:
    """Child process: time import and warmup from a cold interpreter."""
    t0 = perf_counter()
    import_uacg()
    t1 = perf_counter()
    first = None
    for item in workloads.warmup_items(workload):
        start = perf_counter()
        workloads.run_op(workload, item)
        if first is None:
            first = perf_counter() - start
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_call_s": first, "setup_s": t2 - t0}))


def measure_setup(workload: str, speed: HostSpeed) -> dict[str, float]:
    runs = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            speed.sample()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def timed_phase(workload: str, items: list[dict], n_passes: int, rec=None,
                speed: HostSpeed | None = None) -> dict:
    """Closed loop over the items, n_passes times; outputs kept from pass 0.

    Host-speed samples, if asked for, are taken between the calls."""
    first: list = [None] * len(items)
    unstable: set[int] = set()
    per_op: list[list[float]] = [[] for _ in items]
    peak_rss_mb = 0.0
    for p in range(n_passes):
        for i, item in enumerate(items):
            if rec is not None:
                rec.op = i
            if speed is not None:
                speed.keep_up()
            start = perf_counter()
            try:
                out = workloads.run_op(workload, item)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                out = Raised(exc)
            per_op[i].append(perf_counter() - start)
            if p == 0:
                first[i] = out
            elif out != first[i]:
                unstable.add(i)
        if p == 0:
            # Later passes repeat the same work; what they add to the peak is
            # allocator fragmentation, which differs from run to run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"per_op": per_op, "outputs": first, "unstable": unstable, "peak_rss_mb": peak_rss_mb}


def pass_time(phase: dict) -> float:
    """One pass's time with each op at its median over the passes.

    A burst of load on the machine slows a few ops of one pass; the per-op
    median drops those samples, where the median of a few pass totals
    would keep them."""
    return sum(statistics.median(t) for t in phase["per_op"])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10
    samples beyond it, or the maximum when there are fewer than 11 samples."""
    ordered = sorted(samples)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def check_outputs(workload: str, items: list[dict], outputs: list) -> list[list[str]]:
    """Oracle findings per op; an op that raised is a finding too."""
    import oracle

    found = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, Raised):
            found.append([f"op {i} raised {out.text}"])
        elif workload == "verify":
            found.append(oracle.check_verify(item["check"], item["nmax"], list(out)))
        elif workload == "roots":
            roots, bounds = out
            found.append(oracle.check_root_set(item["family"], item["n"], list(roots)))
            if bounds is not None:
                where = f"bound_report {item['family']} n={item['n']} alpha={item['alpha']}"
                found[-1] += oracle.check_bound_report(item["family"], item["n"], item["alpha"],
                                                       *bounds, where)
        else:
            found.append(oracle.check_query(item, out[0], out[1], ROOT))
    return found


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import oracle

    setup_speed = HostSpeed()
    setup = measure_setup(workload, setup_speed)
    uacg = import_uacg()
    for item in workloads.warmup_items(workload):
        workloads.run_op(workload, item)
    items = workloads.INPUTS[workload](seed)
    n_passes = workloads.passes(workload, seconds)

    speed = HostSpeed()
    plain = timed_phase(workload, items, n_passes, speed=speed)
    phases = [plain]
    if trace:
        # One traced pass: the per-layer figures are per pass.
        rec = tracer.Recorder()
        with tracer.instrument(rec):
            traced = timed_phase(workload, items, 1, rec)
        traced["unstable"] |= {
            i for i, (a, b) in enumerate(zip(plain["outputs"], traced["outputs"])) if a != b
        }
        phases.append(traced)

    # Outputs repeat across passes and phases (checked above), so the oracle
    # sees each op once.
    findings = check_outputs(workload, items, plain["outputs"])
    mismatches = [p for per_op in findings for p in per_op]
    known = [p for p in mismatches if p.startswith(oracle.KNOWN_DEFECT)]
    wrong = {i for i, per_op in enumerate(findings)
             if any(not p.startswith(oracle.KNOWN_DEFECT) for p in per_op)}
    attempted = failed = 0
    for phase in phases:
        phase_passes = len(phase["per_op"][0])
        attempted += len(items) * phase_passes
        failed += phase_passes * len(wrong | phase["unstable"])
        mismatches += [f"op {i}: output changed between passes" for i in phase["unstable"]]

    latencies = [t for per_op in plain["per_op"] for t in per_op]
    lat_tail, tail_pct, beyond = tail(latencies)
    wall = pass_time(plain)
    raw = {
        "setup_s": setup["setup_s"],
        "wall_s": wall,
        "ops_per_s": len(items) / wall,
        "latency_p50_ms": 1e3 * statistics.median(statistics.median(t) for t in plain["per_op"]),
        "latency_tail_ms": 1e3 * lat_tail,
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    # Times at the reference host speed; a rate divides by the scale.
    end_to_end = {
        "setup_s": raw["setup_s"] * setup_speed.scale(),
        "wall_s": raw["wall_s"] * speed.scale(),
        "ops_per_s": raw["ops_per_s"] / speed.scale(),
        "latency_p50_ms": raw["latency_p50_ms"] * speed.scale(),
        "latency_tail_ms": raw["latency_tail_ms"] * speed.scale(),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    per_layer = {}
    if trace:
        per_layer = tracer.layer_metrics(rec)
        per_layer["setup.import_s"] = setup["import_s"]
        per_layer["setup.first_call_s"] = setup["first_call_s"]
        per_layer["trace.overhead_frac"] = pass_time(phases[1]) / wall - 1.0
        per_layer["check.oracle_mismatch"] = len(mismatches)
        per_layer["check.known_defect"] = len(known)
        rec.write_spans(OUT / f"{workload}-seed{seed}-spans.json")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "composition": workloads.composition(workload, items),
        "passes": n_passes,
        "op_times_s": plain["per_op"],
        "ops_per_pass": len(items),
        "environment": environment(),
        "uacg": uacg.__file__,
        "latency_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond},
        "setup": setup,
        "host_speed": {"setup": setup_speed.record(), "timed": speed.record()},
        "end_to_end_unscaled": raw,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "oracle_mismatch": len(mismatches),
        "known_defect": len(known),
        "findings": mismatches[:200],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "inputs": items,
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio") or name.endswith("_per_call"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k.split(":")[-1])} for k, v in metrics.items()},
    })


def report(res: dict) -> None:
    print(f"workload={res['workload']} seed={res['seed']} trace={res['trace']} "
          f"passes={res['passes']} ops/pass={res['ops_per_pass']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"failed_frac={res['failed_frac']:.4g}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in res["environment"].items()))
    for name, value in {**res["end_to_end"], **res["per_layer"]}.items():
        print(f"  {name:<56} {value:>14.6g} {unit_of(name)}")
    hs = res["host_speed"]["timed"]
    print(f"  host speed: scale {hs['scale']:.4g} from {hs['samples']} kernel samples; unscaled: "
          + ", ".join(f"{k}={v:.6g}" for k, v in res["end_to_end_unscaled"].items()))
    lt = res["latency_tail"]
    print(f"  latency_tail_ms is p{lt['percentile']:.4g} of {lt['samples']} samples "
          f"({lt['beyond']} beyond)")
    print(f"oracle: {res['oracle_mismatch']} mismatches, {res['known_defect']} of them the "
          "known complement prime-power energy convention", file=sys.stderr)
    for line in res["findings"][:10]:
        print(f"  {line}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    merged, per_layer, ok, attempted, failed = {}, {}, True, 0, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 3, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())
        ok = ok and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{workload}:{k}": v for k, v in res["end_to_end"].items()})
        per_layer.update({f"{workload}:{k}": v for k, v in res["per_layer"].items()})
    path = OUT / f"all-seed{seed}.json"
    path.write_text(json.dumps({"end_to_end": merged, "per_layer": per_layer}, indent=1))
    print(f"per-layer metrics of the traced runs: {path.relative_to(ROOT)}")
    print(result_line(ok, attempted, failed, merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    missing = missing_inputs()
    if missing:
        print(f"error: not a uacg source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC / "uacg"), quiet=1)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1, default=str)
    )
    report(res)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    print(result_line(res["failed"] == 0, res["attempted"], res["failed"], metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
