"""Command-line interface: evaluate one operating point, sweep a grid, or
emit the bundled figure presets.

Exit codes: 0 success, 1 runtime failure (math degeneracy on eval, partial
sweep without --allow-partial, I/O failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import analytics
from .errors import NGError, UsageError
from .model import NGOperationSpec
from .sweep import (
    FIGURES,
    QUANTITIES,
    Axis,
    SweepRequest,
    parse_axis,
    parse_config,
    parse_preset,
    run_sweep,
    to_csv,
    to_json,
)


def _parse_tuple(text: str, key: str, count: int, cast, noun: str) -> tuple:
    """Parse ``count`` comma-separated values with ``cast``; ``noun`` names
    them in errors ("integers", "numbers")."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise UsageError(f"{key}: expected {count} comma-separated {noun}, "
                         f"got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError:
        raise UsageError(f"{key}: expected {noun}, got {text!r}") from None


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {text!r}")


def _parse_tau(text: str):
    """tau accepts a scalar, a start:stop:count axis, or a t1,t2 pair."""
    if "," in text:
        return ("pair", _parse_tuple(text, "tau", 2, float, "numbers"))
    return ("axis", parse_axis(text, "tau"))


# config keys recognized per command, mapped to argparse attribute names
_EVAL_KEYS = {
    "preset": "preset", "photons": "photons", "lambda": "lam",
    "tau": "tau", "phi": "phi", "point": "point",
}
_SWEEP_KEYS = dict(_EVAL_KEYS, **{
    "quantity": "quantity", "output": "output", "format": "fmt",
    "allow-partial": "allow_partial",
})


def _apply_config(args: argparse.Namespace, keys: dict) -> None:
    """Fill unset args from the --config file; flags take precedence."""
    if getattr(args, "config", None) is None:
        return
    for key, raw in parse_config(args.config).items():
        if key not in keys:
            raise UsageError(f"config: unknown key {key!r} in {args.config}")
        attr = keys[key]
        if getattr(args, attr) is None:
            if attr == "allow_partial":
                setattr(args, attr, _parse_bool(raw, key))
            else:
                setattr(args, attr, raw)


def _build_request(args: argparse.Namespace, quantity: str) -> SweepRequest:
    photons = None
    if args.photons is not None:
        photons = _parse_tuple(args.photons, "photons", 4, int, "integers")
    preset = args.preset
    if preset is not None and photons is not None:
        raise UsageError("give either --preset or --photons, not both")
    if preset is None and photons is None:
        raise UsageError("an operation is required: --preset NAME or "
                         "--photons m1,m2,n1,n2")
    lam_axis = parse_axis(args.lam if args.lam is not None else "0.5", "lambda")
    tau_kind, tau_value = _parse_tau(args.tau if args.tau is not None else "1.0")
    phi_axis = parse_axis(args.phi if args.phi is not None else "0.01", "phi")
    point = None
    if args.point is not None:
        point = _parse_tuple(args.point, "point", 4, float, "numbers")
    kwargs = dict(quantity=quantity, preset=preset, photons=photons,
                  lam_axis=lam_axis, phi_axis=phi_axis, point=point)
    kwargs["tau_pair" if tau_kind == "pair" else "tau_axis"] = tau_value
    return SweepRequest(**kwargs)


def _scalar(axis: Axis, key: str) -> float:
    if len(axis.values) != 1:
        raise UsageError(f"{key}: eval takes a single value; use the sweep "
                         f"command for grids")
    return axis.values[0]


def _describe_spec(spec: NGOperationSpec) -> str:
    return (f"m=({spec.m1}, {spec.m2}) n=({spec.n1}, {spec.n2}) "
            f"tau=({spec.tau1!r}, {spec.tau2!r})")


def cmd_eval(args: argparse.Namespace) -> int:
    _apply_config(args, _EVAL_KEYS)
    quantity = "wigner" if args.point is not None else "probability"
    request = _build_request(args, quantity)
    lam = _scalar(request.lam_axis, "lambda")
    phi = _scalar(request.phi_axis, "phi")
    spec = request.spec_for(_scalar(request.tau_axis, "tau"))  # a tau pair overrides it
    report = analytics.sensitivity_report(lam, spec, phi)
    rows = [
        ("operation", (request.preset or "custom") + ": " + _describe_spec(spec)),
        ("lambda", repr(lam)),
        ("phi", repr(phi)),
        ("probability", repr(report.probability)),
        ("parity", repr(report.parity)),
        ("delta_phi", repr(report.delta_phi)),
        ("qfi", repr(report.qfi)),
        ("delta_phi_min", repr(report.delta_phi_min)),
        ("merit", repr(report.merit)),
        ("weighted_merit", repr(report.weighted_merit)),
    ]
    if request.point is not None:
        rows.append(("wigner", repr(analytics.wigner(lam, spec, request.point))))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")
    return 0


def _format(args: argparse.Namespace) -> str:
    fmt = args.fmt or "csv"
    if fmt not in ("csv", "json"):
        raise UsageError(f"format: expected csv or json, got {fmt!r}")
    return fmt


def _emit(records, fmt: str, output: Optional[str]) -> None:
    text = to_json(records) if fmt == "json" else to_csv(records)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_config(args, _SWEEP_KEYS)
    if args.quantity is None:
        raise UsageError("quantity: required for sweep; one of "
                         + ", ".join(QUANTITIES))
    fmt = _format(args)
    request = _build_request(args, args.quantity)
    records = run_sweep(request)
    _emit(records, fmt, args.output)
    failed = sum(1 for rec in records if rec.status != "ok")
    if failed and not args.allow_partial:
        print(f"error: {failed} of {len(records)} grid points did not "
              f"evaluate; rerun with --allow-partial to accept them",
              file=sys.stderr)
        return 1
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(FIGURES):
            print(f"{name}  {FIGURES[name][0]}")
        return 0
    if not args.names:
        raise UsageError("figure: give preset names or --list")
    for name in args.names:
        if name not in FIGURES:
            raise UsageError(f"figure: unknown name {name!r}; see figure --list")
    fmt = _format(args)
    os.makedirs(args.outdir, exist_ok=True)
    for name in args.names:
        _, curves = FIGURES[name]
        for label, request in curves:
            stem = name if len(curves) == 1 else f"{name}_{label}"
            path = os.path.join(args.outdir, f"{stem}.{fmt}")
            _emit(run_sweep(request), fmt, path)
            print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngtmsv",
        description="Metrology of photon-subtracted, photon-added, and "
                    "photon-catalyzed two-mode squeezed vacuum states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", help="operation name, e.g. tmsv, asym-ps-1, "
                                        "sym-pc-2")
        p.add_argument("--photons", help="custom heralding photons m1,m2,n1,n2")
        p.add_argument("--lambda", dest="lam",
                       help="squeezing parameter in [0, 1); scalar or "
                            "start:stop:count (default 0.5)")
        p.add_argument("--tau", help="beamsplitter transmissivity in (0, 1]; "
                                     "scalar, start:stop:count, or t1,t2 pair "
                                     "with --photons (default 1.0)")
        p.add_argument("--phi", help="interferometer phase; scalar or "
                                     "start:stop:count (default 0.01)")
        p.add_argument("--point", help="phase-space point q1,p1,q2,p2 (wigner)")
        p.add_argument("--config", help="key=value file supplying defaults for "
                                        "any omitted flag")

    p_eval = sub.add_parser("eval", help="print every figure of merit at one "
                                         "operating point")
    add_shared(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate one quantity over a grid")
    add_shared(p_sweep)
    p_sweep.add_argument("--quantity", help="one of " + ", ".join(QUANTITIES))
    p_sweep.add_argument("--output", help="write the table here instead of "
                                          "stdout")
    p_sweep.add_argument("--format", dest="fmt", help="csv (default) or json")
    p_sweep.add_argument("--allow-partial", dest="allow_partial",
                         action="store_true", default=None,
                         help="exit 0 even when some grid points are "
                              "degenerate or stationary")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit bundled figure-data presets")
    p_fig.add_argument("names", nargs="*", help="figure names (see --list)")
    p_fig.add_argument("--list", action="store_true",
                       help="list available figures")
    p_fig.add_argument("--outdir", default=".", help="output directory "
                                                     "(default .)")
    p_fig.add_argument("--format", dest="fmt", help="csv (default) or json")
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NGError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
