"""Command-line front end.

Subcommands:
  eval    entropies, sum and bound flags for one state
  bounds  the analytic bound set at one entropic order
  band    CSV of the rescaled band endpoints over an alpha range
  rtable  CSV of the band upper endpoint R_alpha for alpha = 1 and 2..10
  verify  brute-force verification suite, one summary line per check

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 domain or
invariant error, 4 I/O error.  All real numbers are printed with 12
significant digits; CSV output uses LF line endings and is
byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundSet,
    UnsupportedAlphaError,
    bound_set,
    integer_order,
    is_proven_order,
    rescaled_band,
)
from .entropy import tsallis_entropy
from .states import BlochVector, PureStateAngles, measurement_triple
from .verify import (
    DEFAULT_SEED,
    GridSpec,
    ScanReport,
    certify_equality_conditions,
    check_alpha_concavity,
    check_kernel_monotonicity,
    full_domain_orders,
    sample_pure_states,
    scan_orders,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# |sum - bound| below this flags the bound as attained in `eval` output.
ATTAINED_TOL = 1e-6


class UsageError(Exception):
    pass


def fmt(x: float) -> str:
    """12-significant-digit decimal, shortest within that cap."""
    return f"{float(x):.12g}"


def _cell(x) -> str:
    """One CSV cell: fmt for reals, lowercase booleans, empty for None."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return fmt(x)
    return "" if x is None else str(x)


def _parse_alpha(text: str) -> float:
    """The one validator of entropic orders given on the command line."""
    try:
        alpha = float(text)
    except ValueError:
        raise UsageError(f"alpha must be a number, got {text!r}") from None
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise UsageError(f"alpha must be a finite positive number, got {text!r}")
    return alpha


def _parse_state(spec: str):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"state must look like angles:<tau>,<phi> or bloch:<bx>,<by>,<bz>, got {spec!r}")
    try:
        values = [float(part) for part in rest.split(",")]
    except ValueError:
        raise UsageError(f"non-numeric component in state {spec!r}") from None
    if kind == "angles":
        if len(values) != 2:
            raise UsageError(f"angles takes exactly 2 components, got {len(values)}")
        return PureStateAngles(values[0], values[1])
    if kind == "bloch":
        if len(values) != 3:
            raise UsageError(f"bloch takes exactly 3 components, got {len(values)}")
        return BlochVector(values[0], values[1], values[2])
    raise UsageError(f"unknown state kind {kind!r} (expected angles or bloch)")


def _write_csv(path: Optional[str], header: str, rows: Sequence[tuple]) -> None:
    """Write header and rows, each cell formatted by _cell, in one piece (stdout when path is None)."""
    text = header + "\n" + "".join(",".join(_cell(x) for x in row) + "\n" for row in rows)
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path!r}: {exc}") from exc


def _lower_text(bounds: BoundSet) -> str:
    return fmt(bounds.lower) + (" (tight)" if bounds.lower_is_tight else " (not tight)")


def _upper_pure_text(bounds: BoundSet) -> str:
    if bounds.upper_pure is None:
        return "empirical only"
    note = " (tight)" if bounds.upper_pure_is_tight else ""
    if integer_order(bounds.alpha) in (2, 3):
        note += " (attained by every pure state)"
    return fmt(bounds.upper_pure) + note


def cmd_eval(args: argparse.Namespace) -> int:
    state = _parse_state(args.state)
    alpha = _parse_alpha(args.alpha)
    bounds = bound_set(alpha)
    triple = measurement_triple(state)
    entropies = [tsallis_entropy(pair, alpha) for pair in triple.pairs()]
    total = sum(entropies)

    if isinstance(state, PureStateAngles):
        print(f"state: angles tau={fmt(state.tau)} phi={fmt(state.phi)}")
        pure = True
    else:
        print(f"state: bloch ({fmt(state.b_x)}, {fmt(state.b_y)}, {fmt(state.b_z)})")
        pure = state.is_pure(tol=1e-9)
    print(f"alpha: {fmt(alpha)}" + (" (Shannon)" if alpha == 1.0 else ""))
    for name, pair in zip(("x", "y", "z"), triple.pairs()):
        print(f"p({name}): {fmt(pair.p_plus)}, {fmt(pair.p_minus)}")
    for name, value in zip(("x", "y", "z"), entropies):
        print(f"H({name}): {fmt(value)}")
    print(f"sum: {fmt(total)}")
    print(f"lower bound: {_lower_text(bounds)}")
    print(f"upper bound (mixed): {fmt(bounds.upper_mixed)}")
    print(f"upper bound (pure): {_upper_pure_text(bounds)}")

    flags = []
    if abs(total - bounds.lower) <= ATTAINED_TOL:
        flags.append("lower bound attained")
    if abs(total - bounds.upper_mixed) <= ATTAINED_TOL:
        flags.append("mixed-state maximum attained")
    if (
        bounds.upper_pure is not None
        and pure
        and abs(total - bounds.upper_pure) <= ATTAINED_TOL
    ):
        flags.append("pure-state maximum attained (within tolerance)")
    if flags:
        print("flags: " + "; ".join(flags))
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    alpha = _require_alpha(args)
    bounds = bound_set(alpha)
    print(f"alpha: {fmt(alpha)}")
    print(f"lower: {_lower_text(bounds)}")
    print(f"upper_mixed: {fmt(bounds.upper_mixed)}")
    print(f"upper_pure: {_upper_pure_text(bounds)}")
    print(f"h_tilde: {fmt(bounds.h_tilde) if bounds.h_tilde is not None else 'n/a'}")
    print(f"r_alpha: {fmt(bounds.r_alpha) if bounds.r_alpha is not None else 'n/a'}")
    if args.out is not None:
        header = "alpha,lower,lower_is_tight,upper_mixed,upper_pure,upper_pure_is_tight,h_tilde,r_alpha"
        row = (alpha, *(getattr(bounds, name) for name in header.split(",")[1:]))
        _write_csv(args.out, header, [row])
    return EXIT_OK


def cmd_band(args: argparse.Namespace) -> int:
    if not (0.0 < args.alpha_min < args.alpha_max):
        raise UsageError(f"need 0 < alpha-min < alpha-max, got {args.alpha_min!r}, {args.alpha_max!r}")
    if args.steps < 2:
        raise UsageError(f"steps must be at least 2, got {args.steps!r}")
    rows = []
    for alpha in np.linspace(args.alpha_min, args.alpha_max, args.steps).tolist():
        try:
            rows.append((alpha, *rescaled_band(alpha)))
        except UnsupportedAlphaError as exc:
            raise UsageError(str(exc)) from exc
    _write_csv(args.out, "alpha,band_low,band_high", rows)
    return EXIT_OK


def cmd_rtable(args: argparse.Namespace) -> int:
    rows = [(alpha, rescaled_band(alpha)[1]) for alpha in [1.0] + [float(n) for n in range(2, 11)]]
    _write_csv(args.out, "alpha,r_alpha", rows)
    return EXIT_OK


def _require_alpha(args: argparse.Namespace) -> float:
    text = args.alpha_pos if args.alpha_pos is not None else args.alpha
    if text is None:
        raise UsageError("an alpha value is required (positional or --alpha)")
    return _parse_alpha(text)


def _verify_alphas(args: argparse.Namespace) -> list[float]:
    text = args.alphas if args.alphas is not None else args.alpha
    if text is None:
        raise UsageError("an alpha list is required (positional or --alpha)")
    return [_parse_alpha(part) for part in str(text).split(",") if part != ""]


def _status(ok: Optional[bool]) -> str:
    """pass or fail for a check that ran; skip (ok is None) outside its proven range."""
    if ok is None:
        return "skip"
    return "pass" if ok else "fail"


def _verify_checks(alpha: float, report: ScanReport, full_domain: bool, seed: int):
    """Yield (check, status, observed, expected, tolerance) rows for one order.

    report is the order's scan of D and full_domain its full-domain
    consistency, both taken by cmd_verify for all orders in one pass.
    """
    low, up = report.analytic_lower, report.analytic_upper
    tol = 1e-12
    proven = is_proven_order(alpha)
    yield ("lower_bound", _status(report.min_value >= low - tol), report.min_value, low, tol)

    tight = abs(report.min_value - low) <= tol if proven else None
    yield ("lower_tight", _status(tight), report.min_value, low, tol)

    below = report.max_value <= up + tol if up is not None else None
    yield ("upper_pure", _status(below), report.max_value, up, tol)

    certified = certify_equality_conditions(alpha, tolerance=1e-12, seed=seed) if proven else None
    yield ("equality_conditions", _status(certified), "", "", 1e-12)

    kernel = "f" if alpha <= 1.0 else "g" if integer_order(alpha) is not None else None
    monotonic = check_kernel_monotonicity(kernel, alpha, 10_000) if kernel is not None else None
    yield ("kernel_monotonic", _status(monotonic), "", "", "")

    b = sample_pure_states(1, seed=seed)[0]
    state = BlochVector(float(b[0]), float(b[1]), float(b[2]))
    ok = check_alpha_concavity(state, 1.0, max(2.0, alpha), 101)
    yield ("alpha_concavity", _status(ok), "", "", 1e-12)

    yield ("full_domain", _status(full_domain), "", "", "")


def cmd_verify(args: argparse.Namespace) -> int:
    alphas = _verify_alphas(args)
    try:
        grid = GridSpec(args.grid, args.grid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    # every order in one pass per scan: D at --grid, then the full-domain pair
    reports = scan_orders(alphas, grid)
    n_full = min(grid.n_tau, 501)
    full_domain = full_domain_orders(alphas, GridSpec(n_full, 4 * (n_full - 1) + 1))
    # all rows first: a run stopped by an error (exit 3) writes no partial CSV
    rows = []
    for alpha, report, full in zip(alphas, reports, full_domain):
        rows += [(check, alpha, *cells) for check, *cells in _verify_checks(alpha, report, full, args.seed)]
    _write_csv(None, "check,alpha,status,observed,expected,tolerance", rows)
    return EXIT_VERIFY_FAILED if any(row[2] == "fail" for row in rows) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauli-tsallis",
        description=(
            "Tsallis-entropy uncertainty and certainty bounds for the three "
            "Pauli qubit observables, with brute-force verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one state: probabilities, entropies, sum, bounds")
    p.add_argument("state", help="angles:<tau>,<phi> (radians) or bloch:<bx>,<by>,<bz>")
    p.add_argument("--alpha", required=True, help="entropic order (> 0)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bounds", help="print the analytic bound set at one order")
    p.add_argument("alpha_pos", nargs="?", metavar="alpha", help="entropic order (> 0)")
    p.add_argument("--alpha", help="entropic order (> 0)")
    p.add_argument("--out", help="also write the bound set as CSV to this path")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("band", help="CSV of the rescaled band over an alpha range")
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("rtable", help="CSV of R_alpha for alpha = 1 and integer 2..10")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_rtable)

    p = sub.add_parser("verify", help="run the brute-force verification suite")
    p.add_argument("alphas", nargs="?", help="comma-separated list of orders, e.g. 0.5,1,2,4")
    p.add_argument("--alpha", help="alternative way to pass the comma-separated order list")
    p.add_argument(
        "--grid", type=int, default=2001, help="D-grid points per axis, 2 to 1000001 (default 2001)"
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for sampled checks")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass that through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
