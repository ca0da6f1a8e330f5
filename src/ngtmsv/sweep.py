"""Parameter sweeps, table emission, config parsing, and figure presets.

A sweep covers the cartesian grid lambda x tau x phi and collects records in
grid order (lambda outermost, phi fastest). Each lambda-row is evaluated in
chunks of tau values, one heralding array per chunk, with at most
``_CHUNK_ENTRIES`` array entries per chunk. Degenerate or stationary points
are recorded with a status instead of aborting the sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytics
from .errors import (
    DegenerateOperationError,
    DegenerateStateError,
    StationaryPointError,
    UsageError,
)
from .model import NGOperationSpec, _is_real, operation_from_table, tmsv_spec

QUANTITIES = (
    "probability",
    "qfi",
    "qcrb",
    "parity",
    "sensitivity",
    "merit",
    "weighted_merit",
    "wigner",
)

_PRESET_KINDS = ("asym-ps", "asym-pa", "asym-pc", "sym-ps", "sym-pa", "sym-pc")

CSV_HEADER = "lambda,tau1,tau2,phi,value,status"


@dataclass(frozen=True)
class Axis:
    """An inclusive linear grid over one parameter."""

    values: tuple

    @classmethod
    def scalar(cls, value: float) -> "Axis":
        return cls((float(value),))

    @classmethod
    def linear(cls, start: float, stop: float, count: int) -> "Axis":
        if count < 1:
            raise UsageError(f"axis count must be >= 1, got {count}")
        if count == 1:
            return cls((float(start),))
        return cls(tuple(float(v) for v in np.linspace(start, stop, count)))


def parse_axis(text: str, key: str) -> Axis:
    """Parse '0.4' or 'start:stop:count' into an Axis, naming the key on errors."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            return Axis.linear(float(parts[0]), float(parts[1]), int(parts[2]))
        return Axis.scalar(float(text))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"{key}: cannot parse {text!r} as a value or "
                         f"start:stop:count axis ({exc})") from None


def parse_preset(name: str):
    """Split a preset name into (kind, n); 'tmsv' maps to (None, 0).

    Mixed per-mode photon numbers (e.g. 'asym-pc-1-2') are not preset names;
    the error points at --photons.
    """
    key = name.strip().lower()
    if key == "tmsv":
        return None, 0
    for kind in _PRESET_KINDS:
        if key.startswith(kind + "-"):
            rest = key[len(kind) + 1:]
            if "-" in rest:
                raise UsageError(
                    f"preset: {name!r} mixes per-mode photon numbers; build it "
                    f"with --photons m1,m2,n1,n2 (e.g. --photons 1,2,1,2 for "
                    f"catalysis of 1 and 2 photons) and --tau t1,t2")
            try:
                n = int(rest)
            except ValueError:
                raise UsageError(f"preset: {name!r} does not end in a photon "
                                 f"number") from None
            if n < 1:
                raise UsageError(f"preset: photon number in {name!r} must be >= 1")
            return kind, n
    raise UsageError(
        f"preset: unknown name {name!r}; expected tmsv or one of "
        f"{', '.join(k + '-<n>' for k in _PRESET_KINDS)}")


@dataclass(frozen=True)
class SweepRequest:
    """One quantity evaluated over a lambda x tau x phi grid.

    The operation comes either from ``preset`` (tau axis values are placed
    per the preset's convention: asymmetric rows keep tau1 = 1) or from
    ``photons`` = (m1, m2, n1, n2) with the tau axis applied to both modes,
    unless ``tau_pair`` pins (tau1, tau2) explicitly.
    """

    quantity: str
    lam_axis: Axis
    tau_axis: Axis = field(default_factory=lambda: Axis.scalar(1.0))
    phi_axis: Axis = field(default_factory=lambda: Axis.scalar(0.01))
    preset: Optional[str] = None
    photons: Optional[tuple] = None
    tau_pair: Optional[tuple] = None
    point: Optional[tuple] = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise UsageError(
                f"quantity: unknown {self.quantity!r}; expected one of "
                f"{', '.join(QUANTITIES)}")
        if (self.preset is None) == (self.photons is None):
            raise UsageError("exactly one of preset or photons must be given")
        if self.preset is not None:
            if not isinstance(self.preset, str):
                raise UsageError(f"preset: expected a name, got {self.preset!r}")
            parse_preset(self.preset)
        if self.photons is not None:
            ph = self.photons
            if not isinstance(ph, (tuple, list)) or len(ph) != 4 or any(
                    isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in ph):
                raise UsageError(
                    "photons: expected four non-negative integers m1,m2,n1,n2")
        for lam in self.lam_axis.values:
            if not (_is_real(lam) and 0.0 <= lam < 1.0):
                raise UsageError(f"lambda: must lie in [0, 1), got {lam!r}")
        if self.tau_pair is not None and not _reals(self.tau_pair, 2):
            raise UsageError(f"tau: expected a pair of real numbers t1,t2, got {self.tau_pair!r}")
        taus = (self.tau_pair if self.tau_pair is not None
                else self.tau_axis.values)
        for tau in taus:
            if not (_is_real(tau) and 0.0 < tau <= 1.0):
                raise UsageError(f"tau: must lie in (0, 1], got {tau!r}")
        for phi in self.phi_axis.values:
            if not (_is_real(phi) and math.isfinite(phi)):
                raise UsageError(f"phi: must be a finite real number, got {phi!r}")
        if self.quantity == "wigner":
            if self.point is None:
                raise UsageError("wigner sweeps need --point q1,p1,q2,p2")
            if not (_reals(self.point, 4) and all(map(math.isfinite, self.point))):
                raise UsageError("point: expected four finite numbers q1,p1,q2,p2")
        elif self.point is not None:
            raise UsageError(f"point: only meaningful for wigner, not {self.quantity}")

    def spec_for(self, tau: float) -> NGOperationSpec:
        """The operation evaluated at one tau grid value. A ``tau_pair``
        replaces it, and only a ``photons`` request takes one."""
        if self.photons is not None:
            m1, m2, n1, n2 = self.photons
            t1, t2 = self.tau_pair if self.tau_pair is not None else (tau, tau)
            return NGOperationSpec(m1, m2, n1, n2, t1, t2)
        if self.tau_pair is not None:
            raise UsageError("tau: presets take a scalar or axis tau, not a pair; "
                             "use --photons for explicit per-mode transmissivities")
        kind, n = parse_preset(self.preset)
        if kind is None:
            return tmsv_spec()
        return operation_from_table(kind, n, tau)


def _reals(values, count: int) -> bool:
    """Whether ``values`` is a sequence of ``count`` real numbers (not bools)."""
    try:
        return len(values) == count and all(map(_is_real, values))
    except TypeError:
        return False


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: the operation's actual (tau1, tau2) and the outcome.

    ``status`` is 'ok' (value present), 'degenerate' (heralding probability
    underflow or no phase information), or 'stationary' (parity slope zero).
    """

    lam: float
    tau1: float
    tau2: float
    phi: float
    value: Optional[float]
    status: str


# A chunk holds at most this many heralding-array entries, summed over its
# points: one sym-pc-2 state (3^8 entries) per chunk, a whole asym-pa-1 row
# (4 entries per point) in one.
_CHUNK_ENTRIES = 8192


def run_sweep(request: SweepRequest) -> list:
    """Evaluate the grid; records come back in grid order (lambda outermost,
    then tau, then phi).

    Each lambda-row is evaluated in chunks of consecutive tau values: the
    points of a row share their photon numbers, so a chunk is one engine
    call with a batch axis (see :func:`ngtmsv.analytics.evaluate_chunk`).
    Every point gets the value and status it gets on its own, and an error
    that is not a status is raised from the first point in grid order that
    raises it.
    """
    specs = ([request.spec_for(tau) for tau in request.tau_axis.values]
             if request.lam_axis.values else [])
    entries = math.prod(k + 1 for k in specs[0].derivative_spec().orders) if specs else 1
    size = max(1, _CHUNK_ENTRIES // entries)
    records = []
    for lam in request.lam_axis.values:
        for start in range(0, len(specs), size):
            chunk = specs[start:start + size]
            outcomes = analytics.evaluate_chunk(
                request.quantity, lam, chunk, request.phi_axis.values, request.point)
            points = ((spec, phi) for spec in chunk for phi in request.phi_axis.values)
            for (spec, phi), out in zip(points, outcomes):
                records.append(_record(lam, spec, phi, out))
    return records


def _record(lam: float, spec: NGOperationSpec, phi: float, outcome) -> SweepRecord:
    if isinstance(outcome, (DegenerateOperationError, DegenerateStateError)):
        value, status = None, "degenerate"
    elif isinstance(outcome, StationaryPointError):
        value, status = None, "stationary"
    elif isinstance(outcome, Exception):
        raise outcome
    else:
        value, status = outcome, "ok"
    return SweepRecord(lam=lam, tau1=spec.tau1, tau2=spec.tau2, phi=phi,
                       value=value, status=status)


def to_csv(records) -> str:
    """Render records as CSV. Floats use shortest round-trip formatting;
    non-ok rows leave the value column empty."""
    lines = [CSV_HEADER]
    for rec in records:
        value = repr(rec.value) if rec.status == "ok" else ""
        lines.append(",".join((repr(rec.lam), repr(rec.tau1), repr(rec.tau2),
                               repr(rec.phi), value, rec.status)))
    return "\n".join(lines) + "\n"


def to_json(records) -> str:
    """Render records as a JSON array of objects (value null when not ok)."""
    payload = [
        {"lambda": rec.lam, "tau1": rec.tau1, "tau2": rec.tau2, "phi": rec.phi,
         "value": rec.value, "status": rec.status}
        for rec in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def records_from_json(text: str) -> list:
    """Inverse of :func:`to_json` (used by tests and downstream tooling)."""
    out = []
    for row in json.loads(text):
        out.append(SweepRecord(lam=row["lambda"], tau1=row["tau1"],
                               tau2=row["tau2"], phi=row["phi"],
                               value=row["value"], status=row["status"]))
    return out


def parse_config(path: str) -> dict:
    """Read key=value lines (UTF-8, '#' comments). Returns raw string values;
    keys are validated by the CLI merge step."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                out[key.strip().lower().replace("_", "-")] = value.strip()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Figure presets: named curve collections matching the survey plots.
# ---------------------------------------------------------------------------

_LAM_HEAT = ("0.0:0.95:101", "lambda")
_LAM_CURVE = ("0.01:0.95:101", "lambda")
_TAU_HEAT = ("0.01:1.0:101", "tau")
_TAU_OPEN = ("0.01:0.99:101", "tau")
_PHI_CURVE = ("0.01:1.5:101", "phi")


def _req(quantity, preset=None, photons=None, lam="0.4", tau="0.9",
         phi="0.01") -> SweepRequest:
    return SweepRequest(
        quantity=quantity,
        preset=preset,
        photons=photons,
        lam_axis=parse_axis(lam, "lambda"),
        tau_axis=parse_axis(tau, "tau"),
        phi_axis=parse_axis(phi, "phi"),
    )


def _figures() -> dict:
    figs: dict = {}
    # probability heatmaps over (lambda, tau)
    panels = [
        ("fig2a", "asym-ps-1"), ("fig2b", "asym-ps-2"),
        ("fig2c", "sym-ps-1"), ("fig2d", "sym-ps-2"),
        ("fig2e", "asym-pa-1"), ("fig2f", "asym-pa-2"),
        ("fig2g", "sym-pa-1"), ("fig2h", "sym-pa-2"),
        ("fig2i", "asym-pc-1"), ("fig2j", "asym-pc-2"),
        ("fig2k", "sym-pc-1"), ("fig2l", "sym-pc-2"),
    ]
    for name, preset in panels:
        figs[name] = (f"success probability of {preset} over (lambda, tau)",
                      [(preset, _req("probability", preset,
                                     lam=_LAM_HEAT[0], tau=_TAU_HEAT[0]))])

    def family(quantity, op, lam, tau, phi="0.01"):
        """Bare TMSV plus the one- and two-photon asym/sym ``op`` presets."""
        presets = (f"asym-{op}-1", f"asym-{op}-2", f"sym-{op}-1", f"sym-{op}-2")
        return [("tmsv", _req(quantity, "tmsv", lam=lam, tau="1.0", phi=phi))] + [
            (preset, _req(quantity, preset, lam=lam, tau=tau, phi=phi))
            for preset in presets]

    # QCRB curves vs lambda (a: subtraction tau=0.9, b: addition tau=0.9,
    # c: catalysis tau=0.2) and vs tau at lambda=0.4
    families = {"a": ("ps", "0.9"), "b": ("pa", "0.9"), "c": ("pc", "0.2")}
    for suffix, (op, tau) in families.items():
        figs[f"fig3{suffix}"] = (
            f"phase bound vs lambda for {op} presets (tau={tau})",
            family("qcrb", op, _LAM_CURVE[0], tau))
        figs[f"fig4{suffix}"] = (
            f"phase bound vs tau for {op} presets (lambda=0.4)",
            family("qcrb", op, "0.4", _TAU_OPEN[0]))
    # parity-detection sensitivity curves
    for suffix, (op, tau) in families.items():
        figs[f"fig5{suffix}"] = (
            f"parity sensitivity vs lambda for {op} presets (tau={tau}, phi=0.01)",
            family("sensitivity", op, _LAM_CURVE[0], tau))
        figs[f"fig6{suffix}"] = (
            f"parity sensitivity vs tau for {op} presets (lambda=0.4, phi=0.01)",
            family("sensitivity", op, "0.4", _TAU_OPEN[0]))
        figs[f"fig7{suffix}"] = (
            f"parity sensitivity vs phi for {op} presets (lambda=0.4)",
            family("sensitivity", op, "0.4", tau, _PHI_CURVE[0]))
    # merit heatmaps
    merit_panels = {
        "fig8": ("ps merit over (lambda, tau)",
                 [("asym-ps-1",), ("asym-ps-2",), ("sym-ps-1",), ("sym-ps-2",)]),
        "fig9": ("pa merit over (lambda, tau)",
                 [("asym-pa-1",), ("asym-pa-2",), ("sym-pa-1",), ("sym-pa-2",)]),
    }
    for base, (desc, presets) in merit_panels.items():
        for letter, (preset,) in zip("abcd", presets):
            figs[f"{base}{letter}"] = (
                f"{desc}: {preset} (phi=0.01)",
                [(preset, _req("merit", preset,
                               lam=_LAM_CURVE[0], tau=_TAU_OPEN[0]))])
    pc_panels = [
        ("fig10a", "asym-pc-1", None),
        ("fig10b", "asym-pc-2", None),
        ("fig10c", "pc-1-2", (1, 2, 1, 2)),
        ("fig10d", "sym-pc-1", None),
        ("fig10e", "sym-pc-2", None),
    ]
    for name, label, photons in pc_panels:
        if photons is None:
            req = _req("merit", label, lam=_LAM_CURVE[0], tau=_TAU_HEAT[0])
        else:
            req = _req("merit", photons=photons,
                       lam=_LAM_CURVE[0], tau=_TAU_HEAT[0])
        figs[name] = (f"catalysis merit over (lambda, tau): {label} (phi=0.01)",
                      [(label, req)])
    # probability-weighted merit vs tau for the six single-photon presets
    for suffix, lam in (("a", "0.1"), ("b", "0.5"), ("c", "0.9")):
        curves = []
        for preset in ("asym-ps-1", "asym-pa-1", "asym-pc-1",
                       "sym-ps-1", "sym-pa-1", "sym-pc-1"):
            curves.append((preset, _req("weighted_merit", preset,
                                        lam=lam, tau=_TAU_OPEN[0])))
        figs[f"fig11{suffix}"] = (
            f"probability-weighted merit vs tau (lambda={lam}, phi=0.01)", curves)
    return figs


FIGURES = _figures()


__all__ = [
    "Axis",
    "SweepRequest",
    "SweepRecord",
    "QUANTITIES",
    "CSV_HEADER",
    "FIGURES",
    "parse_axis",
    "parse_preset",
    "parse_config",
    "run_sweep",
    "to_csv",
    "to_json",
    "records_from_json",
]
