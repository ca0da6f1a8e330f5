"""Correctness check of a run's outputs, made after the timed phase.

Every output gets the cheap checks: it parses, it echoes the requested
grid or input, and it satisfies the invariants that apply to it
(P in [0, 1], |parity| <= 1, delta_phi >= delta_phi_min, |W| <= 1/pi^2,
merit at most the bare-TMSV sensitivity, which has a closed form). A seeded
subsample is checked against the Fock oracle with the test suite's
tolerances, and against the same quantity for the mode-swapped operation.
The oracle subsample draws from ORACLE_LAM only: the oracle's per-mode
cutoff grows as 1/|log lambda|, and below 0.1 the parity fringe is so flat
(slope ~ lambda^2) that the oracle's finite-difference sensitivity loses the
digits its 1e-7 tolerance needs.

An output that fails any check counts once in ``failed``. Points with
status ``degenerate`` or ``stationary`` are counted, not failed.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import workloads as wl

P_ABS = 1e-8          # heralding probability against the oracle
PARITY_ABS = 1e-6     # parity signal against the oracle
QFI_REL = 1e-6        # quantum Fisher information against the oracle
WIGNER_ABS = 1e-10    # Wigner value against oracle.wigner_point
DPHI_REL = 1e-7       # sensitivity against the oracle's finite difference
SWAP_TOL = 1e-10      # mode swap; absolute, relative once the value exceeds 1
SLACK = 1e-9          # invariant slack, as in the analytic layer
FD_STEP = 1e-3

ORACLE_LAM = (0.1, 0.6)
ORACLE_SAMPLES = 3
SWAP_SAMPLES = 6
WIGNER_BOUND = 1.0 / math.pi ** 2
CSV_HEADER = "lambda,tau1,tau2,phi,value,status"
STATUSES = ("ok", "degenerate", "stationary")


class Tally:
    """Attempted and failed outputs, oracle figures and status counts."""

    def __init__(self):
        self.attempted = 0
        self.failed: set = set()
        self.messages: list = []
        self.oracle_checked = 0
        self.oracle_max_rel_err = 0.0
        self.statuses: Counter = Counter()

    def fail(self, key, message: str) -> None:
        if key not in self.failed and len(self.messages) < 5:
            self.messages.append(f"{key}: {message}")
        self.failed.add(key)

    def expect(self, key, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(key, message)
        return ok

    def close(self, key, what: str, got, want, abs_tol=0.0, rel_tol=0.0) -> None:
        err = abs(got - want)
        self.expect(key, err <= abs_tol + rel_tol * abs(want),
                    f"{what} {got!r} differs from {want!r} by {err:.3e}")

    def oracle(self, key, what: str, got, want, abs_tol=0.0, rel_tol=0.0):
        self.oracle_checked += 1
        rel = abs(got - want) / max(abs(want), 1e-300)
        self.oracle_max_rel_err = max(self.oracle_max_rel_err, rel)
        self.close(key, f"{what} vs oracle", got, want, abs_tol, rel_tol)


def tmsv_sensitivity(lam: float, phi: float) -> float:
    """Closed-form parity sensitivity of the bare TMSV at operating point phi:
    f(t) = (1 - l^2) / sqrt(1 + 2 l^2 cos 2t + l^4) at t = phi + pi/2."""
    t = phi + math.pi / 2.0
    a = 1.0 - lam * lam
    d = 1.0 + 2.0 * lam * lam * math.cos(2.0 * t) + lam ** 4
    f = a / math.sqrt(d)
    slope = 2.0 * a * lam * lam * math.sin(2.0 * t) / d ** 1.5
    return math.sqrt(max(1.0 - f * f, 0.0)) / abs(slope)


def _oracle_parity(state, theta: float) -> float:
    from ngtmsv import oracle

    return oracle.parity_expect(oracle.mzi_apply(state, theta))


def _oracle_sensitivity(state, phi: float) -> float:
    """Sensitivity from the oracle's parity signal; the slope is a
    five-point central difference (error O(h^4), rounding ~1e-13 / h)."""
    op = phi + math.pi / 2.0
    f = {k: _oracle_parity(state, op + k * FD_STEP) for k in (-2, -1, 0, 1, 2)}
    slope = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * FD_STEP)
    return math.sqrt(max(1.0 - f[0] * f[0], 0.0)) / abs(slope)


def _swap_close(tally, key, what, got, want) -> None:
    tally.close(key, f"{what} under mode swap", got, want,
                abs_tol=SWAP_TOL * max(1.0, abs(want)))


def _sample(rng: random.Random, items: list, k: int) -> list:
    return rng.sample(items, min(k, len(items)))


def _oracle_range(lam: float) -> bool:
    return ORACLE_LAM[0] <= lam <= ORACLE_LAM[1]


# -- sweeps -----------------------------------------------------------------

def parse_table(text: str, fmt: str) -> list:
    """Rows (lam, tau1, tau2, phi, value, status) of emitted CSV or JSON."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing CSV header")
        rows = []
        for line in lines[1:]:
            f = line.split(",")
            if len(f) != 6:
                raise ValueError(f"CSV row has {len(f)} fields")
            rows.append((float(f[0]), float(f[1]), float(f[2]), float(f[3]),
                         float(f[4]) if f[4] else None, f[5]))
        return rows
    try:
        return [(r["lambda"], r["tau1"], r["tau2"], r["phi"], r["value"],
                 r["status"]) for r in json.loads(text)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed JSON record: {exc}") from None


def check_sweep(workload: str, calls: list, seed: int, tally: Tally) -> None:
    from ngtmsv import analytics, model, oracle

    quantity, preset, _ = wl.SWEEPS[workload]
    taus = wl.tau_values(workload)
    asym = preset.startswith("asym")
    weighted = quantity == "weighted_merit"
    ok_points = []
    for ci, call in enumerate(calls):
        inp, out = call["input"], call["output"]
        tally.attempted += len(taus)
        keys = [(ci, j) for j in range(len(taus))]
        if "error" in out:
            for key in keys:
                tally.fail(key, out["error"])
            continue
        try:
            rows = parse_table(out["text"], inp["fmt"])
        except ValueError as exc:
            rows = []
            message = f"unparsable {inp['fmt']}: {exc}"
        else:
            message = f"{len(rows)} rows for {len(taus)} grid points"
        if len(rows) != len(taus):
            for key in keys:
                tally.fail(key, message)
            continue
        for key, tau, (lam, t1, t2, phi, value, status) in zip(keys, taus, rows):
            want = (inp["lam"], 1.0 if asym else tau, tau, wl.PHI)
            if not tally.expect(key, (lam, t1, t2, phi) == want,
                                f"grid point {(lam, t1, t2, phi)} != {want}"):
                continue
            if not tally.expect(key, status in STATUSES, f"status {status!r}"):
                continue
            tally.statuses[status] += 1
            if status != "ok":
                continue
            if not tally.expect(key, isinstance(value, float)
                                and math.isfinite(value), f"value {value!r}"):
                continue
            bound = tmsv_sensitivity(lam, phi)
            tally.expect(key, value <= bound * (1.0 + SLACK),
                         f"{quantity} {value!r} exceeds the bare-TMSV "
                         f"sensitivity {bound!r}")
            ok_points.append((key, lam, tau, phi, value))

    rng = random.Random(f"check:{workload}:{seed}")
    small = [p for p in ok_points if _oracle_range(p[1])]
    for key, lam, tau, phi, value in _sample(rng, small, ORACLE_SAMPLES):
        spec = wl.preset_spec(preset, tau)
        try:
            state, prob = oracle.prepare_ng_state(lam, spec)
            bare, _ = oracle.prepare_ng_state(lam, model.tmsv_spec())
            report = analytics.sensitivity_report(lam, spec, phi)
        except Exception as exc:  # a raise is a failed output
            tally.fail(key, f"oracle subsample raised {type(exc).__name__}: {exc}")
            continue
        dphi = _oracle_sensitivity(state, phi)
        ref = _oracle_sensitivity(bare, phi)
        merit = ref - dphi
        tol = DPHI_REL * (ref + dphi)
        if weighted:
            tally.oracle(key, quantity, value, prob * merit,
                         abs_tol=prob * tol + P_ABS * abs(merit))
        else:
            tally.oracle(key, quantity, value, merit, abs_tol=tol)
        tally.oracle(key, "probability", report.probability, prob, abs_tol=P_ABS)
        tally.oracle(key, "parity", report.parity,
                     _oracle_parity(state, phi), abs_tol=PARITY_ABS)
        tally.oracle(key, "qfi", report.qfi, 4.0 * oracle.j2_moments(state)[1],
                     rel_tol=QFI_REL)
    evaluate = getattr(analytics, quantity)
    for key, lam, tau, phi, value in _sample(rng, ok_points, SWAP_SAMPLES):
        swapped = wl.preset_spec(preset, tau).swapped()
        try:
            _swap_close(tally, key, quantity, evaluate(lam, swapped, phi), value)
        except Exception as exc:  # a raise is a failed output
            tally.fail(key, f"mode swap raised {type(exc).__name__}: {exc}")


# -- state-probe --------------------------------------------------------------

def check_probe(calls: list, seed: int, tally: Tally) -> None:
    from ngtmsv import analytics, oracle

    n_kernel, n_wigner = wl.PROBE_POINTS, wl.PROBE_WIGNER
    moment_at = {idx: n_kernel + n_wigner + m
                 for m, idx in enumerate(wl.MOMENT_INDICES)}
    qfi_at = wl.outputs_per_call("state-probe") - 1
    good = []
    for ci, call in enumerate(calls):
        inp, out = call["input"], call["output"]
        tally.attempted += qfi_at + 1
        if "error" in out:
            for j in range(qfi_at + 1):
                tally.fail((ci, j), out["error"])
            continue
        values = out["kernel"] + out["wigner"] + out["moments"] + [out["qfi"]]
        if len(values) != qfi_at + 1:
            for j in range(qfi_at + 1):
                tally.fail((ci, j), f"{len(values)} results, want {qfi_at + 1}")
            continue
        finite = [math.isfinite(v) for v in values]
        for j, ok in enumerate(finite):
            tally.expect((ci, j), ok, f"result {values[j]!r}")
        for j in range(n_kernel + n_wigner):
            tally.expect((ci, j), abs(values[j]) <= WIGNER_BOUND * (1 + SLACK),
                         f"|W| = {abs(values[j])!r} exceeds 1/pi^2")
        for k in range(n_wigner):
            tally.close((ci, n_kernel + k), "wigner against the kernel",
                        values[n_kernel + k], values[k],
                        abs_tol=1e-12, rel_tol=SLACK)
        m = {idx: values[j] for idx, j in moment_at.items()}
        tally.expect((ci, moment_at[(0, 0, 0, 0)]), m[(0, 0, 0, 0)] == 1.0,
                     f"zeroth moment {m[(0, 0, 0, 0)]!r} != 1")
        for idx, j in moment_at.items():
            if sum(idx) == 1:
                tally.expect((ci, j), abs(m[idx]) <= SLACK,
                             f"first moment {idx} = {m[idx]!r}")
        for q, p in (((2, 0, 0, 0), (0, 2, 0, 0)), ((0, 0, 2, 0), (0, 0, 0, 2))):
            tally.expect((ci, moment_at[q]), m[q] * m[p] >= 0.25 * (1 - SLACK),
                         f"<q^2><p^2> = {m[q] * m[p]!r} below 1/4")
        tally.expect((ci, qfi_at), values[qfi_at] > 0.0,
                     f"qfi {values[qfi_at]!r} not positive")
        if all(finite):
            good.append((ci, inp, values))

    rng = random.Random(f"check:state-probe:{seed}")
    small = [g for g in good if _oracle_range(g[1]["lam"])]
    for ci, inp, values in _sample(rng, small, ORACLE_SAMPLES):
        spec = wl.preset_spec("sym-pc-1", inp["tau"])
        state, _ = oracle.prepare_ng_state(inp["lam"], spec)
        tally.oracle((ci, qfi_at), "qfi", values[qfi_at],
                     4.0 * oracle.j2_moments(state)[1], rel_tol=QFI_REL)
        for j in _sample(rng, list(range(n_kernel)), 2):
            tally.oracle((ci, j), "Wigner kernel", values[j],
                         oracle.wigner_point(state, inp["points"][j]),
                         abs_tol=WIGNER_ABS)
    for ci, inp, values in _sample(rng, good, SWAP_SAMPLES):
        spec = wl.preset_spec("sym-pc-1", inp["tau"])
        j = rng.randrange(n_kernel)
        q1, p1, q2, p2 = inp["points"][j]
        try:
            swapped = analytics.wigner(inp["lam"], spec.swapped(), (q2, p2, q1, p1))
        except Exception as exc:  # a raise is a failed output
            tally.fail((ci, j), f"mode swap raised {type(exc).__name__}: {exc}")
            continue
        _swap_close(tally, (ci, j), "Wigner kernel", swapped, values[j])


# -- eval-cli -----------------------------------------------------------------

EVAL_FIELDS = ("lambda", "phi", "probability", "parity", "delta_phi", "qfi",
               "delta_phi_min", "merit", "weighted_merit", "wigner")


def parse_eval(stdout: str) -> dict:
    """The numeric rows of ``ngtmsv eval`` output."""
    rows = {}
    for line in stdout.splitlines():
        name, _, value = line.partition(" ")
        rows[name] = value.strip()
    missing = [f for f in EVAL_FIELDS if f not in rows]
    if missing:
        raise ValueError(f"missing rows {missing}")
    return {f: float(rows[f]) for f in EVAL_FIELDS}


def check_eval(calls: list, seed: int, tally: Tally) -> None:
    from ngtmsv import analytics, oracle

    good = []
    for ci, call in enumerate(calls):
        inp, out = call["input"], call["output"]
        tally.attempted += 1
        if not tally.expect(ci, out.get("returncode") == 0,
                            f"exit {out.get('returncode')}: {out.get('stderr', '')[-200:]}"):
            continue
        try:
            r = parse_eval(out["stdout"])
        except ValueError as exc:
            tally.fail(ci, f"unparsable eval output: {exc}")
            continue
        ok = all(tally.expect(ci, math.isfinite(v), f"{f} = {v!r}")
                 for f, v in r.items())
        ok &= tally.expect(ci, (r["lambda"], r["phi"]) == (inp["lam"], inp["phi"]),
                           "lambda/phi not echoed")
        ok &= tally.expect(ci, 0.0 <= r["probability"] <= 1.0,
                           f"P = {r['probability']!r}")
        ok &= tally.expect(ci, abs(r["parity"]) <= 1.0 + SLACK,
                           f"parity = {r['parity']!r}")
        ok &= tally.expect(ci, r["delta_phi"] >= r["delta_phi_min"] - SLACK,
                           "delta_phi beats delta_phi_min")
        ok &= tally.expect(ci, abs(r["wigner"]) <= WIGNER_BOUND * (1 + SLACK),
                           f"|W| = {abs(r['wigner'])!r} exceeds 1/pi^2")
        if not ok:
            continue
        tally.close(ci, "delta_phi_min", r["delta_phi_min"],
                    1.0 / math.sqrt(r["qfi"]), rel_tol=SLACK)
        tally.close(ci, "weighted_merit", r["weighted_merit"],
                    r["probability"] * r["merit"], abs_tol=1e-15, rel_tol=SLACK)
        ref = tmsv_sensitivity(inp["lam"], inp["phi"])
        tally.close(ci, "merit", r["merit"], ref - r["delta_phi"],
                    abs_tol=SLACK * max(1.0, ref))
        good.append((ci, inp, r))

    rng = random.Random(f"check:eval-cli:{seed}")
    small = [g for g in good if _oracle_range(g[1]["lam"])]
    for ci, inp, r in _sample(rng, small, ORACLE_SAMPLES):
        lam, phi = inp["lam"], inp["phi"]
        state, prob = oracle.prepare_ng_state(lam, wl.preset_spec(inp["preset"], inp["tau"]))
        tally.oracle(ci, "probability", r["probability"], prob, abs_tol=P_ABS)
        tally.oracle(ci, "parity", r["parity"], _oracle_parity(state, phi),
                     abs_tol=PARITY_ABS)
        tally.oracle(ci, "qfi", r["qfi"], 4.0 * oracle.j2_moments(state)[1],
                     rel_tol=QFI_REL)
        tally.oracle(ci, "wigner", r["wigner"],
                     oracle.wigner_point(state, inp["point"]), abs_tol=WIGNER_ABS)
        tally.oracle(ci, "delta_phi", r["delta_phi"],
                     _oracle_sensitivity(state, phi), rel_tol=DPHI_REL)
    for ci, inp, r in _sample(rng, good, SWAP_SAMPLES):
        spec = wl.preset_spec(inp["preset"], inp["tau"])
        try:
            rep = analytics.sensitivity_report(inp["lam"], spec.swapped(), inp["phi"])
        except Exception as exc:  # a raise is a failed output
            tally.fail(ci, f"mode swap raised {type(exc).__name__}: {exc}")
            continue
        for f in ("probability", "qfi", "delta_phi", "delta_phi_min"):
            _swap_close(tally, ci, f, getattr(rep, f), r[f])
        _swap_close(tally, ci, "parity",
                    (-1.0) ** spec.total_photons * rep.parity, r["parity"])


def check(workload: str, calls: list, seed: int) -> Tally:
    """Check every output of a run; see the module docstring."""
    tally = Tally()
    if workload in wl.SWEEPS:
        check_sweep(workload, calls, seed, tally)
    elif workload == "state-probe":
        check_probe(calls, seed, tally)
    else:
        check_eval(calls, seed, tally)
    return tally
