"""Parameter sweeps, table emission, config parsing, and figure presets.

A sweep covers the cartesian grid lambda x tau x phi and collects records in
grid order (lambda outermost, phi fastest). Each lambda-row is one call of
:func:`ngtmsv.analytics.evaluate_checked`, which fills the heralding blocks
of consecutive tau values under a bounded number of bytes of arrays.
Degenerate or stationary points are recorded with a status instead of
aborting the sweep.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
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
from .model import (
    NGOperationSpec, _KIND_ROWS, _is_double, _is_real, _preset_row, operation_from_table,
    tmsv_spec)
from .series import _is_count

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

CSV_HEADER = "lambda,tau1,tau2,phi,value,status"


@dataclass(frozen=True)
class Axis:
    """An inclusive linear grid over one parameter."""

    values: tuple

    @classmethod
    def scalar(cls, value: float) -> "Axis":
        return cls.linear(value, value, 1)

    @classmethod
    def linear(cls, start: float, stop: float, count: int) -> "Axis":
        if not (_is_double(start) and _is_double(stop)):
            raise UsageError("axis: expected real numbers in double precision, "
                             f"got {start!r} and {stop!r}")
        if type(count) is bool or not (isinstance(count, (int, np.integer)) and count >= 1):
            raise UsageError(f"axis count must be an integer >= 1, got {count!r}")
        if count == 1:
            return cls((float(start),))
        return cls(tuple(np.linspace(start, stop, count).tolist()))


def parse_axis(text: str, key: str) -> Axis:
    """Parse '0.4' or 'start:stop:count' into an Axis, naming the key on errors."""
    if not isinstance(text, str):
        raise UsageError(f"{key}: expected a value or start:stop:count axis, got {text!r}")
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
    if not isinstance(name, str):
        raise UsageError(f"preset: expected a name, got {name!r}")
    key = name.strip().lower()
    if key == "tmsv":
        return None, 0
    for kind in _KIND_ROWS:
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
        f"{', '.join(k + '-<n>' for k in _KIND_ROWS)}")


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
            parse_preset(self.preset)
            if self.tau_pair is not None:
                raise UsageError("tau: presets take a scalar or axis tau, not a pair; "
                                 "use --photons for explicit per-mode transmissivities")
        if self.photons is not None:
            ph = self.photons
            if not isinstance(ph, (tuple, list)) or len(ph) != 4 or not all(map(_is_count, ph)):
                raise UsageError(
                    "photons: expected four non-negative integers m1,m2,n1,n2")
        for lam in _axis_values(self.lam_axis, "lambda"):
            if not (_is_double(lam) and 0.0 <= lam < 1.0):
                raise UsageError(f"lambda: must lie in [0, 1), got {lam!r}")
        if self.tau_pair is not None and not _reals(self.tau_pair, 2):
            raise UsageError(f"tau: expected a pair of real numbers t1,t2, got {self.tau_pair!r}")
        taus = _axis_values(self.tau_axis, "tau")
        for tau in self.tau_pair if self.tau_pair is not None else taus:
            if not (_is_double(tau) and 0.0 < tau <= 1.0):
                raise UsageError(f"tau: must lie in (0, 1], got {tau!r}")
        for phi in _axis_values(self.phi_axis, "phi"):
            if not (_is_double(phi) and math.isfinite(phi)):
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
        kind, n = parse_preset(self.preset)
        if kind is None:
            return tmsv_spec()
        return operation_from_table(kind, n, tau)


def _axis_values(axis, key: str) -> tuple:
    """The values of an axis field, once it is checked to be an Axis whose
    values are iterable and hold no real number narrower than double
    precision (see :func:`~ngtmsv.model._is_double`)."""
    try:
        values = tuple(axis.values)
    except (AttributeError, TypeError):
        raise UsageError(f"{key}: expected an Axis of values, got {axis!r}") from None
    for value in values:
        if not _is_double(value) and _is_real(value):
            raise UsageError(f"{key}: {value!r} is narrower than double precision")
    return values


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


def run_sweep(request: SweepRequest) -> list:
    """Evaluate the grid; records come back in grid order (lambda outermost,
    then tau, then phi).

    Who checks what: ``SweepRequest`` checks the axes and the Wigner point;
    :func:`ngtmsv.model._preset_row` checks a preset's kind and n once per
    row and each tau as an operation's tau; ``NGOperationSpec`` checks an
    operation built from ``photons``. The evaluation checks none of it
    again: the points of a lambda-row share their photon numbers, so a row
    is one call of :func:`ngtmsv.analytics.evaluate_checked` (the evaluation
    behind ``evaluate_chunk``, without its checks), in fills of the
    heralding blocks with a batch axis.
    Every point gets the value and status it gets on its own, and an error
    that is not a status is raised from the first point in grid order that
    raises it.
    """
    kind, n = (None, 0) if request.preset is None else parse_preset(request.preset)
    taus = request.tau_axis.values
    specs = tuple(map(request.spec_for, taus) if kind is None else _preset_row(kind, n, taus))
    phis = request.phi_axis.values
    xi = analytics._as_point(request.point) if request.quantity == "wigner" else None
    points = [(spec.tau1, spec.tau2, phi) for spec in specs for phi in phis]
    records = []
    for lam in request.lam_axis.values:
        outcomes = analytics.evaluate_checked(request.quantity, lam, specs, phis, xi)
        records += [_record(lam, *point, out) for point, out in zip(points, outcomes)]
    return records


def _record(lam: float, tau1: float, tau2: float, phi: float, outcome) -> SweepRecord:
    """A point's record, filled in place as :func:`~ngtmsv.model._preset_row`
    fills specs (a frozen dataclass's ``__init__`` calls ``object.__setattr__``)."""
    if type(outcome) is float:
        value, status = outcome, "ok"
    elif isinstance(outcome, (DegenerateOperationError, DegenerateStateError)):
        value, status = None, "degenerate"
    elif isinstance(outcome, StationaryPointError):
        value, status = None, "stationary"
    else:
        raise outcome
    record = object.__new__(SweepRecord)
    fields = record.__dict__  # filled in the order of the dataclass fields
    fields["lam"], fields["tau1"], fields["tau2"] = lam, tau1, tau2
    fields["phi"], fields["value"], fields["status"] = phi, value, status
    return record


_FIELDS = operator.attrgetter("lam", "tau1", "tau2", "phi", "value", "status")
_FLOATS = (float, np.float16, np.float32)  # a narrow one is the double it equals
_STATUSES = ("ok", "degenerate", "stationary")
_JSON_FIELDS = ("lambda", "tau1", "tau2", "phi", "value", "status")
_ABSENT = object()  # a field that a row read from JSON lacks


def _plain(rows: list):
    """The ``repr`` texts of the (lam, tau1, tau2, phi, value) columns of rows
    that hold only 'ok' and finite Python floats (those of a finite sum), else
    None. A column of one nonzero value is formatted once (equal nonzero doubles
    have the same bits); one that starts with a zero keeps 0.0 apart from -0.0."""
    columns = tuple(zip(*rows))
    n = len(rows)
    if not (columns and columns[5].count("ok") == n
            and set(map(type, itertools.chain(*columns[:5]))) == {float}
            and math.isfinite(sum(map(sum, columns[:5])))):
        return None
    return [[repr(col[0])] * n if col[0] and col.count(col[0]) == n else list(map(repr, col))
            for col in columns[:5]]


def _check_row(n: int, row) -> tuple:
    """Row ``n`` (its fields in the order of ``_JSON_FIELDS``), unless
    :func:`records_from_json` refuses it."""
    for key, value in zip(_JSON_FIELDS, row):
        if value is _ABSENT:
            raise UsageError(f"records: row {n} has no {key!r} field")
        if key == "status":
            wrong = value not in _STATUSES
        else:
            wrong = not (_is_real(value) or key == "value" and value is None)
        if wrong:
            raise UsageError(f"records: row {n} has a wrong {key!r}: {value!r}")
    if (row[4] is None) == (row[5] == "ok"):  # only 'ok' has a value
        raise UsageError(f"records: row {n} has a wrong 'value' for status {row[5]!r}")
    return row


def _csv_scalar(value) -> str:
    """A float, numpy's included, as JSON writes it (``float.__repr__``), else its ``repr``."""
    return float.__repr__(float(value)) if isinstance(value, _FLOATS) else repr(value)


def to_csv(records) -> str:
    """Render records as CSV. Floats use shortest round-trip formatting;
    non-ok rows leave the value column empty. A record that
    :func:`records_from_json` would refuse as a row raises its
    :class:`~ngtmsv.errors.UsageError`."""
    rows = list(map(_FIELDS, records))
    texts = _plain(rows)
    if texts is not None:
        lines = [f"{lam},{t1},{t2},{phi},{value},ok" for lam, t1, t2, phi, value in zip(*texts)]
    else:
        lines = [",".join((*map(_csv_scalar, (lam, t1, t2, phi)),
                           _csv_scalar(value) if status == "ok" else "", status))
                 for lam, t1, t2, phi, value, status in map(_check_row, itertools.count(), rows)]
    return "\n".join((CSV_HEADER, *lines)) + "\n"


_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %s' for key in _JSON_FIELDS) + "\n  }"
_JSON_PLAIN_ROW = _JSON_ROW % (("%s",) * 5 + ('"ok"',))


def _json_scalar(value) -> str:
    """``json.dumps(value)``, a float, numpy's included, as the double it
    equals; a finite one is its ``float.__repr__``, which json writes."""
    if isinstance(value, _FLOATS):
        return _csv_scalar(value) if math.isfinite(value) else json.dumps(float(value))
    return json.dumps(value)


def to_json(records) -> str:
    """Render records as a JSON array of objects (value null when not ok).
    A record that :func:`records_from_json` would refuse as a row raises
    its :class:`~ngtmsv.errors.UsageError`.

    The text is ``json.dumps(rows, indent=2) + "\\n"`` of the rows, byte for
    byte, written directly: with an indent, json runs its pure-Python
    encoder.
    """
    rows = list(map(_FIELDS, records))
    texts = _plain(rows)
    if texts is not None:
        text = ",\n".join(map(_JSON_PLAIN_ROW.__mod__, zip(*texts)))
    else:
        text = ",\n".join(_JSON_ROW % tuple(map(_json_scalar, row))
                           for row in map(_check_row, itertools.count(), rows))
    return f"[\n{text}\n]\n" if text else "[]\n"


def records_from_json(text: str) -> list:
    """Inverse of :func:`to_json` (used by tests and downstream tooling).

    Text that is not a JSON array of record objects, with a value in each
    'ok' row and in no other, raises :class:`~ngtmsv.errors.UsageError`, naming the row and field.
    """
    try:
        rows = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"records: cannot read the text as JSON ({exc})") from None
    if not isinstance(rows, list):
        raise UsageError(f"records: expected a JSON array of objects, got {type(rows).__name__}")
    out = []
    for n, row in enumerate(rows):
        if not isinstance(row, dict):
            raise UsageError(f"records: row {n} is not an object: {row!r}")
        fields = tuple(row.get(key, _ABSENT) for key in _JSON_FIELDS)
        out.append(SweepRecord(*_check_row(n, fields)))
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


def _figures() -> dict:
    figs: dict = {}
    axes: dict = {}  # text -> Axis: the requests share one frozen Axis per text

    def axis(text, key):
        if text not in axes:
            axes[text] = parse_axis(text, key)
        return axes[text]

    def _req(quantity, preset=None, photons=None, lam="0.4", tau="0.9",
             phi="0.01") -> SweepRequest:
        return SweepRequest(
            quantity=quantity,
            preset=preset,
            photons=photons,
            lam_axis=axis(lam, "lambda"),
            tau_axis=axis(tau, "tau"),
            phi_axis=axis(phi, "phi"),
        )

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
