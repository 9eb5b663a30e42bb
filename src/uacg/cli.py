"""Command-line front end: spectra, energies, verification suites, and the
bundled reference tables as CSV or JSON.  Every command with a --format
option prints through the one writer, _write.

Exit codes: 0 success, 1 verification failure, 2 argument error, 3 when an
exact method was requested but none covers the input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, NamedTuple

from . import __version__
from .analysis import _classify_all, find_borderenergetic_alphas
from .closedform import (
    ALPHA_GRID,
    ClosedFormUnavailable,
    _complete_energy,
    _route,
    energy_report,
    spectrum_for,
)
from .graphs import parse_spec_label
from .linalg import DEFAULT_GROUP_TOL
from .verification import SCOPES, run_suite

__all__ = ["OutputRecord", "main"]

FAMILY_CHOICES = (
    "uacg",
    "unitary-cayley",
    "complete",
    "complement-uacg",
    "complement-unitary-cayley",
)

# Orders of the bundled energy table (one block of three rows per order) and
# of the two root tables.
TABLE1_NS = (9, 27, 81, 5, 25, 125, 625, 49, 121)
TABLE2_NS = (9, 27, 81, 243, 5)
TABLE3_NS = (9, 27, 81, 5, 25, 125, 625, 49, 121)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NO_CLOSED_FORM = 3

MAX_SWEEP_POINTS = 10**6


def _fmt12g(x: float) -> str:
    """Fixed 12-significant-digit float formatting for payloads."""
    return f"{float(x):.12g}"


def _fmt_dec12(x: float) -> str:
    """12 decimal places with trailing zeros trimmed (root-table precision)."""
    s = f"{float(x):.12f}".rstrip("0").rstrip(".")
    return s if s else "0"


# json.dumps spells the non-finite floats this way.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj: Any, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2) writes it, each float first rounded
    to 12 significant digits (_fmt12g), at indent (a line break and the
    indentation of obj's line).  Keys are strings; tuples are written as lists."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = _fmt12g(obj)
        return _NON_FINITE.get(text) or repr(float(text))
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class OutputRecord:
    """Single top-level JSON object every command emits in JSON mode."""

    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    version: str = __version__

    def to_json(self) -> str:
        """The record as json.dumps(..., indent=2) writes it, every float
        rounded to 12 significant digits, in one pass (_json)."""
        return _json({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "version": self.version,
        })


def _write(
    args: argparse.Namespace,
    header: str,
    lines: Iterable[str],
    results: Callable[[], dict[str, Any]],
) -> int:
    """Print a command's output in its --format: the CSV header and lines, or
    one OutputRecord whose inputs are the parsed arguments and whose results
    are results().  Only the chosen format's half is built: lines is consumed
    for CSV alone and results called for JSON alone.  Callers compute every
    row first, so a failing call prints nothing."""
    if args.format == "csv":
        text = "\n".join([header, *lines])
    else:
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "format", "func")}
        text = OutputRecord(command=args.command, inputs=inputs, results=results()).to_json()
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec = parse_spec_label(args.family, args.n)
    spectrum, used = spectrum_for(spec, args.alpha, method=args.method, group_tol=args.group_tol)
    return _write(
        args,
        "value,multiplicity",
        (f"{_fmt12g(v)},{mult}" for v, mult in spectrum.pairs),
        lambda: {
            "pairs": spectrum.pairs,
            "distinct": len(spectrum.pairs),
            "n": spectrum.n,
            "method_used": used,
        },
    )


def _cmd_energy(args: argparse.Namespace) -> int:
    spec = parse_spec_label(args.family, args.n)
    report = energy_report(spec, args.alpha)
    return _write(
        args,
        "family,n,alpha,m,shift,energy,method",
        (
            f"{args.family},{r.n},{_fmt12g(r.alpha)},{r.m},{_fmt12g(r.shift)},"
            f"{_fmt12g(r.energy)},{r.method}"
            for r in (report,)
        ),
        lambda: {
            "n": report.n,
            "m": report.m,
            "shift": report.shift,
            "energy": report.energy,
            "method": report.method,
        },
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.scope, args.nmax)
    all_passed = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}: worst residual {r.worst:.3e} over {r.cases} cases"
        if not r.passed and r.detail:
            line += f" ({r.detail})"
        print(line)
        all_passed = all_passed and r.passed
    print(f"{'all checks passed' if all_passed else 'CHECKS FAILED'} "
          f"(scope={args.scope}, nmax={args.nmax})")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == 1:
        alpha_labels = [_fmt12g(a) for a in ALPHA_GRID]
        rows = []  # (family, n, energies to 3 decimals)
        for n in TABLE1_NS:
            for family in ("uacg", "complement-uacg", "complete"):
                spec = parse_spec_label(family, n)
                cells = [f"{e:.3f}" for e in _route(spec)[2](ALPHA_GRID)]
                rows.append((family, n, cells))
        return _write(
            args,
            "family,n," + ",".join(alpha_labels),
            (f"{family},{n}," + ",".join(cells) for family, n, cells in rows),
            lambda: {
                "alphas": alpha_labels,
                "rows": [
                    {"family": family, "n": n, "energies": [float(c) for c in cells]}
                    for family, n, cells in rows
                ],
            },
        )
    ns, family = (TABLE2_NS, "uacg") if args.which == 2 else (TABLE3_NS, "complement-uacg")
    rows = []  # (n, alpha, energy, complete_energy), the last three to 12 decimals
    for n in ns:
        spec = parse_spec_label(family, n)
        roots = find_borderenergetic_alphas(spec)
        for a, e in zip(roots, _route(spec)[2](roots)):
            rows.append((n, *map(_fmt_dec12, (a, e, _complete_energy(n, a)))))
    return _write(
        args,
        "n,alpha,energy,complete_energy",
        (",".join(map(str, row)) for row in rows),
        lambda: {
            "rows": [
                {"n": n, "alpha": float(a), "energy": float(e), "complete_energy": float(c)}
                for n, a, e, c in rows
            ]
        },
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    start, end, step = args.alpha_start, args.alpha_end, args.step
    if not 0.0 <= start < end < 1.0:
        raise ValueError(f"need 0 <= alpha-start < alpha-end < 1, got [{start}, {end}]")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be positive and finite, got {step}")
    if (end - start) / step > MAX_SWEEP_POINTS:
        raise ValueError(f"step {step} gives more than {MAX_SWEEP_POINTS} sweep steps")
    spec = parse_spec_label(args.family, args.n)
    alphas, k = [], 0
    # rounding slack past end, at most half a step so a tiny step cannot run
    # on; a step below the float spacing rounds onto the last alpha kept,
    # which adds no row
    while (a := start + k * step) <= end + min(1e-12, step / 2):
        if not alphas or min(a, end) > alphas[-1]:
            alphas.append(min(a, end))
        k += 1
    reports = _classify_all(spec, alphas)
    return _write(
        args,
        "alpha,energy,complete_energy,verdict",
        (
            f"{_fmt12g(r.alpha)},{_fmt12g(r.energy)},{_fmt12g(r.complete_energy)},{r.verdict}"
            for r in reports
        ),
        lambda: {
            "rows": [
                {
                    "alpha": r.alpha,
                    "energy": r.energy,
                    "complete_energy": r.complete_energy,
                    "verdict": r.verdict,
                }
                for r in reports
            ]
        },
    )


# ---------------------------------------------------------------------------
# Parser assembly and entry point.


class _Option(NamedTuple):
    """One --flag of a command, with the add_argument keywords it is declared by."""

    flag: str
    type: Callable[[str], Any] | None = None
    choices: tuple | None = None
    default: Any = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    func: Callable[[argparse.Namespace], int]
    options: tuple[_Option, ...]


_FAMILY = _Option("--family", choices=FAMILY_CHOICES, required=True)
_N = _Option("--n", type=int, required=True)
_ALPHA = _Option("--alpha", type=float, required=True)
_JSON = _Option("--format", choices=("json", "csv"), default="json")
_CSV = _JSON._replace(default="csv")

# Every command and its options, in declaration order: _build_parser builds
# the argparse parser from it, and _parse_exact parses the plain form of an
# argv from it.
_COMMANDS = {
    "spectrum": _Command("eigenvalues of the alpha matrix", _cmd_spectrum, (
        _FAMILY,
        _N,
        _ALPHA,
        _Option("--method", choices=("auto", "closed", "numeric"), default="auto"),
        _JSON,
        _Option("--group-tol", type=float, default=DEFAULT_GROUP_TOL,
                help="tolerance for merging nearly equal eigenvalues"),
    )),
    "energy": _Command(
        "alpha energy of a family member", _cmd_energy, (_FAMILY, _N, _ALPHA, _JSON)
    ),
    "verify": _Command("run the invariant suites", _cmd_verify, (
        _Option("--scope", choices=SCOPES, default="all"),
        _Option("--nmax", type=int, required=True),
    )),
    "table": _Command("regenerate a bundled reference table", _cmd_table, (
        _Option("--which", type=int, choices=(1, 2, 3), required=True),
        _CSV,
    )),
    "sweep": _Command("energy and verdict over an alpha range", _cmd_sweep, (
        _FAMILY,
        _N,
        _Option("--alpha-start", type=float, required=True),
        _Option("--alpha-end", type=float, required=True),
        _Option("--step", type=float, required=True),
        _CSV,
    )),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of _COMMANDS, built on the first argv that
    _parse_exact leaves to it and shared after it: every parse fills a fresh
    namespace, the defaults and choices are immutable, and help and errors
    are formatted when printed."""
    parser = argparse.ArgumentParser(
        prog="uacg",
        description="Spectra, energies and borderenergetic classification "
        "for unit-sum Cayley graph families.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cp = sub.add_parser(name, help=command.help)
        for opt in command.options:
            cp.add_argument(opt.flag, type=opt.type, choices=opt.choices, default=opt.default,
                            required=opt.required, help=opt.help)
        cp.set_defaults(func=command.func)
    return parser


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """The namespace _build_parser() parses argv into, when argv has the plain
    form `command --flag value ...`; else None.

    Plain means: each flag is one of the command's, spelled out in full and
    given once, no value starts with "-", every value converts by its type
    and is one of its choices, and every required flag is given.  The
    namespace holds command, the options in declaration order, then func,
    the order argparse sets them in.  Help, --version and every error take
    the argparse parser.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:
        return None
    args = argparse.Namespace(command=argv[0])
    for opt in command.options:
        value = given.pop(opt.flag, None)
        if value is None:
            if opt.required:
                return None
            value = opt.default
        else:
            if value.startswith("-"):
                return None
            if opt.type is not None:
                try:
                    value = opt.type(value)
                except (TypeError, ValueError):
                    return None
            if opt.choices is not None and value not in opt.choices:
                return None
        setattr(args, opt.dest, value)
    if given:
        return None
    args.func = command.func
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ClosedFormUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CLOSED_FORM
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
