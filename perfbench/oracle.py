"""Independent output oracle for the benchmark.

Shares no code with the uacg package: adjacency comes from math.gcd, dense
spectra from numpy.linalg.eigvalsh, and the circulant families (unitary
Cayley, the complete graph, and unit-sum graphs of even order) from an FFT of
their connection set.  Every check returns a list of problems, each a
location string; an empty list means the output is correct.

One disagreement is known and documented in the package README: for the
complement of the unit-sum graph at odd prime-power orders and alpha > 0,
energies follow the paper's tabulated formula, not the spectrum.  The oracle
detects it like any other mismatch and tags the location with KNOWN_DEFECT
when the output matches that formula, so callers can count it apart.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from workloads import odd_prime_power

KNOWN_DEFECT = "known-defect"

# Acceptance tolerances of the reference tables.
TABLE1_TOL = 2e-3
ROOT_ALPHA_TOL = 1e-9
ROOT_VALUE_TOL = 1e-8
# Classification tolerance the CLI uses for sweep verdicts.
VERDICT_TOL = 1e-6


def _units(n: int) -> np.ndarray:
    return np.array([math.gcd(k, n) == 1 for k in range(n)], dtype=float)


def _split(label: str) -> tuple[str, bool]:
    comp = label.startswith("complement-")
    return label.removeprefix("complement-"), comp


def is_circulant(label: str, n: int) -> bool:
    family, _ = _split(label)
    return family != "uacg" or n % 2 == 0


@lru_cache(maxsize=16)
def _circulant_adjacency_values(family: str, comp: bool, n: int) -> tuple[np.ndarray, int]:
    """Adjacency eigenvalues (unsorted) and degree of a regular circulant family."""
    if family == "complete":
        sym = np.ones(n)
        sym[0] = 0.0
    else:
        sym = _units(n)
    # The eigenvalues are Ramanujan sums, so integers; rounding removes the
    # FFT's error, which at n ~ 1e5 can sum past the verdict tolerance.
    lam = np.round(np.fft.fft(sym).real)
    deg = int(round(sym.sum()))
    if family == "uacg":
        # Left circulant: lambda_0, lambda_{n/2}, and +-|lambda_k| pairs.
        half = np.abs(lam[1 : n // 2])
        vals = np.concatenate(([lam[0], lam[n // 2]], half, -half))
    else:
        vals = lam
    if comp:
        # vals[0] belongs to the all-ones eigenvector in both layouts.
        vals = np.concatenate(([n - 1.0 - deg], -1.0 - vals[1:]))
        deg = n - 1 - deg
    vals.setflags(write=False)  # cached
    return vals, deg


def _dense_uacg_adjacency(comp: bool, n: int) -> np.ndarray:
    idx = np.arange(n)
    adj = _units(n)[np.add.outer(idx, idx) % n]
    np.fill_diagonal(adj, 0.0)
    if comp:
        adj = 1.0 - adj
        np.fill_diagonal(adj, 0.0)
    return adj


@lru_cache(maxsize=64)
def _spectrum(label: str, n: int, alpha: float) -> tuple[np.ndarray, int]:
    """(eigenvalues of A_alpha sorted descending, edge count)."""
    family, comp = _split(label)
    if is_circulant(label, n):
        vals, deg = _circulant_adjacency_values(family, comp, n)
        vals = alpha * deg + (1.0 - alpha) * vals
        m = n * deg // 2
    else:
        adj = _dense_uacg_adjacency(comp, n)
        deg = adj.sum(axis=1)
        mat = (1.0 - alpha) * adj
        mat[np.diag_indices(n)] = alpha * deg
        vals = np.linalg.eigvalsh(mat)
        m = int(round(deg.sum())) // 2
    vals = np.sort(vals)[::-1]
    vals.setflags(write=False)
    return vals, m


def alpha_spectrum(label: str, n: int, alpha: float) -> np.ndarray:
    return _spectrum(label, n, float(alpha))[0]


def edge_count(label: str, n: int) -> int:
    return _spectrum(label, n, 0.0)[1]


def alpha_energy(label: str, n: int, alpha: float) -> float:
    if is_circulant(label, n):
        # Regular, so A_alpha - (2 alpha m / n) I = (1 - alpha) A.  Shifting
        # the spectrum instead cancels two terms of size alpha * degree in
        # every eigenvalue, an error that sums to ~1e-6 at n ~ 1e5.
        vals, _ = _circulant_adjacency_values(*_split(label), n)
        return float((1.0 - alpha) * np.abs(vals).sum())
    vals, m = _spectrum(label, n, float(alpha))
    return float(np.abs(vals - 2.0 * alpha * m / n).sum())


def complete_energy(n: int, alpha: float) -> float:
    return 2.0 * (1.0 - alpha) * (n - 1.0)


def tabulated_complement_energy(n: int, alpha: float) -> float | None:
    """The paper's tabulated complement energy at odd prime powers, else None."""
    pp = odd_prime_power(n)
    if pp is None:
        return None
    p, k = pp
    q = p ** (k - 1)
    if alpha <= (n - p) / (n - 1.0):
        return (p * n + n - 2.0 * p + alpha * (3.0 - p - 2.0 * q)) / p
    return (p * n - n + alpha * (1.0 - p - 2.0 * q + 2.0 * n)) / p


def _close(got: float, want: float, rtol: float = 1e-8) -> bool:
    return abs(got - want) <= rtol * (1.0 + abs(want))


def check_energy(label: str, n: int, alpha: float, energy: float, where: str) -> list[str]:
    """Energy against the spectral oracle; the known convention is tagged."""
    want = alpha_energy(label, n, alpha)
    if _close(energy, want):
        return []
    msg = f"{where}: energy {energy!r} != oracle {want!r}"
    tab = tabulated_complement_energy(n, alpha) if label == "complement-uacg" else None
    if tab is not None and alpha > 0.0 and _close(energy, tab):
        return [f"{KNOWN_DEFECT} {msg}"]
    return [msg]


def _verdict(energy: float, reference: float) -> str:
    diff = energy - reference
    if abs(diff) <= VERDICT_TOL:
        return "borderenergetic"
    return "hyperenergetic" if diff > VERDICT_TOL else "neither"


def check_root(label: str, n: int, root: float, where: str) -> list[str]:
    """A returned root must make the energy gap to K_n vanish."""
    if not 0.0 <= root < 1.0:
        return [f"{where}: root {root!r} outside [0, 1)"]
    gap = alpha_energy(label, n, root) - complete_energy(n, root)
    if abs(gap) <= 1e-7 * (1.0 + n):
        return []
    msg = f"{where}: oracle energy gap {gap!r} at root {root!r}"
    tab = tabulated_complement_energy(n, root) if label == "complement-uacg" else None
    if tab is not None and root > 0.0 and abs(tab - complete_energy(n, root)) <= 1e-7 * (1.0 + n):
        return [f"{KNOWN_DEFECT} {msg}"]
    return [msg]


def check_root_set(label: str, n: int, roots: list[float], grid: int = 21) -> list[str]:
    """Each root re-evaluated, plus no sign change of the gap left unbracketed."""
    where = f"roots {label} n={n}"
    problems = [p for r in roots for p in check_root(label, n, r, where)]
    if list(roots) != sorted(roots):
        problems.append(f"{where}: roots not ascending {roots!r}")
    alphas = [i / (grid - 1) for i in range(grid - 1)] + [0.999]
    gaps = [alpha_energy(label, n, a) - complete_energy(n, a) for a in alphas]
    scale = 1e-7 * (1.0 + n)
    for a0, a1, g0, g1 in zip(alphas, alphas[1:], gaps, gaps[1:]):
        if abs(g0) > scale and abs(g1) > scale and (g0 > 0) != (g1 > 0):
            if not any(a0 <= r <= a1 for r in roots):
                msg = f"{where}: gap changes sign in [{a0}, {a1}] but no root returned"
                known = label == "complement-uacg" and not _tabulated_gap_changes_sign(n, a0, a1)
                problems.append(f"{KNOWN_DEFECT} {msg}" if known else msg)
    return problems


def _tabulated_gap_changes_sign(n: int, a0: float, a1: float) -> bool:
    """False only when n is an odd prime power, a0 > 0, and the tabulated
    complement energy stays on one side of the complete graph's over [a0, a1].

    The tabulated energy is piecewise linear in alpha, so its gap to K_n is
    checked at the ends and at the breakpoint."""
    if a0 <= 0.0 or odd_prime_power(n) is None:
        return True
    p = odd_prime_power(n)[0]
    points = [a for a in (a0, (n - p) / (n - 1.0), a1) if a0 <= a <= a1]
    gaps = [tabulated_complement_energy(n, a) - complete_energy(n, a) for a in points]
    return min(gaps) <= 0.0 <= max(gaps)


def check_bound_report(label: str, n: int, alpha: float, observed: tuple, energy: float,
                       where: str) -> list[str]:
    """Observed eigenvalues of a bound report against the oracle spectrum.

    The report's energy comes from its own eigenvalues, so it must match the
    spectral energy, not the tabulated convention."""
    want = alpha_spectrum(label, n, alpha)
    problems = []
    for index, value in observed:
        if abs(value - want[index - 1]) > 1e-8 * (1.0 + abs(want[index - 1])):
            problems.append(f"{where}: eigenvalue {index} is {value!r}, oracle {want[index - 1]!r}")
    if not observed:
        problems.append(f"{where}: no eigenvalue bounds reported")
    if not _close(energy, alpha_energy(label, n, alpha)):
        problems.append(f"{where}: energy {energy!r} != oracle {alpha_energy(label, n, alpha)!r}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs.


def _read_fixture(root: Path, which: int) -> list[dict[str, str]]:
    with open(root / "tests" / "fixtures" / f"table{which}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _parse(stdout: str, fmt: str) -> tuple[list[dict[str, str]] | None, dict | None]:
    if fmt == "csv":
        return list(csv.DictReader(stdout.splitlines())), None
    return None, json.loads(stdout)


def _check_spectrum(q: dict, stdout: str, where: str) -> list[str]:
    rows, doc = _parse(stdout, q["format"])
    if rows is not None:
        pairs = [(float(r["value"]), int(r["multiplicity"])) for r in rows]
    else:
        pairs = [(float(v), int(m)) for v, m in doc["results"]["pairs"]]
    got = np.repeat([v for v, _ in pairs], [m for _, m in pairs])
    want = alpha_spectrum(q["family"], q["n"], q["alpha"])
    if got.size != want.size:
        return [f"{where}: {got.size} eigenvalues, oracle has {want.size}"]
    err = np.abs(got - want) / (1.0 + np.abs(want))
    if err.max() > 1e-6:
        k = int(err.argmax())
        return [f"{where}: eigenvalue {k} is {got[k]!r}, oracle {want[k]!r}"]
    return []


def _check_energy_output(q: dict, stdout: str, where: str) -> list[str]:
    rows, doc = _parse(stdout, q["format"])
    res = rows[0] if rows is not None else doc["results"]
    problems = []
    if int(res["m"]) != edge_count(q["family"], q["n"]):
        problems.append(f"{where}: m={res['m']} != oracle {edge_count(q['family'], q['n'])}")
    return problems + check_energy(q["family"], q["n"], q["alpha"], float(res["energy"]), where)


def _check_sweep(q: dict, stdout: str, where: str) -> list[str]:
    rows, doc = _parse(stdout, q["format"])
    rows = rows if rows is not None else doc["results"]["rows"]
    if not rows:
        return [f"{where}: no rows"]
    problems = []
    for row in rows:
        a = float(row["alpha"])
        at = f"{where} alpha={a}"
        if not q["alpha_start"] - 1e-12 <= a <= q["alpha_end"] + 1e-12:
            problems.append(f"{at}: alpha outside the requested range")
            continue
        energy = float(row["energy"])
        found = check_energy(q["family"], q["n"], a, energy, at)
        problems += found
        ref = complete_energy(q["n"], a)
        if not _close(float(row["complete_energy"]), ref):
            problems.append(f"{at}: complete energy {row['complete_energy']} != {ref!r}")
        truth = energy if found and found[0].startswith(KNOWN_DEFECT) else alpha_energy(
            q["family"], q["n"], a
        )
        if abs(abs(truth - ref) - VERDICT_TOL) > 1e-9 and row["verdict"] != _verdict(truth, ref):
            problems.append(f"{at}: verdict {row['verdict']} != {_verdict(truth, ref)}")
    return problems


def _check_table(q: dict, stdout: str, where: str, root: Path) -> list[str]:
    which = q["which"]
    fixture = _read_fixture(root, which)
    rows, doc = _parse(stdout, q["format"])
    problems: list[str] = []
    if which == 1:
        alphas = [c for c in fixture[0] if c not in ("family", "n")]
        if rows is None:
            rows = [
                {"family": r["family"], "n": r["n"], **dict(zip(alphas, r["energies"]))}
                for r in doc["results"]["rows"]
            ]
        if len(rows) != len(fixture):
            return [f"{where}: {len(rows)} rows, reference has {len(fixture)}"]
        for got, want in zip(rows, fixture):
            if (got["family"], str(got["n"])) != (want["family"], want["n"]):
                problems.append(f"{where}: row {got['family']},{got['n']} out of order")
                continue
            for a in alphas:
                if abs(float(got[a]) - float(want[a])) > TABLE1_TOL:
                    problems.append(f"{where}: {want['family']} n={want['n']} alpha={a}: "
                                    f"{got[a]} != reference {want[a]}")
        return problems
    label = "uacg" if which == 2 else "complement-uacg"
    rows = rows if rows is not None else doc["results"]["rows"]
    if [int(r["n"]) for r in rows] != [int(r["n"]) for r in fixture]:
        return [f"{where}: orders {[r['n'] for r in rows]} differ from the reference"]
    for got, want in zip(rows, fixture):
        n, a = int(got["n"]), float(got["alpha"])
        at = f"{where} n={n}"
        if abs(a - float(want["alpha"])) > ROOT_ALPHA_TOL:
            problems.append(f"{at}: alpha {a!r} != reference {want['alpha']}")
        for key in ("energy", "complete_energy"):
            if abs(float(got[key]) - float(want[key])) > ROOT_VALUE_TOL:
                problems.append(f"{at}: {key} {got[key]} != reference {want[key]}")
        problems += check_root(label, n, a, at)
    return problems


def check_query(q: dict, code: int, stdout: str, root: Path) -> list[str]:
    """Check one CLI call's exit code and output against the oracle."""
    where = " ".join(q["argv"])
    if code != 0:
        return [f"{where}: exit code {code}"]
    try:
        if q["cmd"] == "energy":
            return _check_energy_output(q, stdout, where)
        if q["cmd"] == "spectrum":
            return _check_spectrum(q, stdout, where)
        if q["cmd"] == "sweep":
            return _check_sweep(q, stdout, where)
        return _check_table(q, stdout, where, root)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"{where}: unparseable output ({exc!r})"]


# ---------------------------------------------------------------------------
# verify: the checks' own verdicts, with case counts derived here.


def expected_verify_cases(nmax: int) -> dict[str, list[int] | None]:
    """Case counts of each check at its default parameters; None = data-dependent."""
    pp = sum(1 for q in range(3, nmax + 1, 2) if odd_prime_power(q))
    evens = len(range(2, nmax + 1, 2))
    odds = range(3, nmax + 1, 2)
    orders = nmax - 1
    grid = 11  # the eleven-point alpha grid
    return {
        "check_prime_power_spectra": [pp * 2 * grid],
        "check_even_spectra": [evens * 2 * 3],
        "check_spectral_identities": [orders * 2 * grid] * 2,
        "check_complement_identity": [orders * grid],
        "check_energy_consistency": [pp * grid] * 2,
        "check_regular_shortcut": [evens * 3],
        "check_complement_even_energy": [evens],
        "check_interval_containment": [sum(odds) * 2 * 5],
        "check_energy_sandwich": [len(odds) * 2 * 4],
        "check_roots": None,
    }


def check_verify(check: str, nmax: int, results: list[tuple]) -> list[str]:
    """results: (name, passed, worst, cases) per CheckResult the check returned."""
    where = f"verification.{check}(nmax={nmax})"
    problems = []
    want = expected_verify_cases(nmax).get(check, None)
    cases = [r[3] for r in results]
    if want is not None and cases != want:
        problems.append(f"{where}: cases {cases} != expected {want}")
    if want is None and (len(results) != 1 or cases[0] < 1):
        problems.append(f"{where}: expected one result with cases >= 1, got {cases}")
    for name, passed, worst, _ in results:
        if not passed or not math.isfinite(worst):
            problems.append(f"{where}: {name} failed (worst residual {worst!r})")
    return problems
