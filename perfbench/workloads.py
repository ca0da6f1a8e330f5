"""Workload inputs and units of work.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned. Inputs come only from the seed, so the same
seed gives the same calls in the same order.

- ``sweep-light``: one lambda-row per call, a ``weighted_merit`` sweep of
  ``asym-pa-1`` over the criterion-8 tau axis, then CSV or JSON emission
  (alternating). Its coefficient arrays hold at most 4 entries, so the
  time is per-point Python overhead.
- ``sweep-heavy``: the same row shape with ``merit`` of ``sym-pc-2`` (the
  fig10e panel); each engine call fills a 3^8-entry array, so the
  derivative engine dominates.
- ``state-probe``: one seeded ``sym-pc-1`` state per call, queried many
  times: the Wigner kernel at seeded points, ``wigner`` at a few of them,
  every moment of total order <= 2, and the QFI. Only this workload runs
  the polynomial ring and the 12-variable moment exponents.
- ``eval-cli``: one ``ngtmsv eval`` subprocess per call; interpreter start-up
  and import dominate, so batching and caching should not move it.

The in-process calls reach the package through module attributes
(``sweep.run_sweep``, not a name imported here) so that the layer hooks in
:mod:`tracing`, which rebind names inside the package, see every call.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("sweep-light", "sweep-heavy", "state-probe", "eval-cli")

LAM_RANGE = (0.01, 0.95)
PHI = 0.01
SWEEPS = {
    # workload: (quantity, preset, tau axis)
    "sweep-light": ("weighted_merit", "asym-pa-1", "0.01:0.99:101"),
    "sweep-heavy": ("merit", "sym-pc-2", "0.01:1.0:21"),
}

PROBE_PRESET = ("sym-pc", 1)
PROBE_LAM = (0.1, 0.8)
PROBE_TAU = (0.1, 0.9)
PROBE_POINTS = 24          # kernel evaluations per state
PROBE_WIGNER = 3           # the first points also go through ``wigner``
PROBE_COORD = 1.5
MOMENT_INDICES = tuple(idx for idx in itertools.product(range(3), repeat=4)
                       if sum(idx) <= 2)

EVAL_PRESETS = ("asym-ps-1", "asym-pa-1", "sym-ps-1", "sym-pc-1")
EVAL_LAM = (0.05, 0.9)
EVAL_TAU = (0.1, 0.95)
EVAL_PHI = (0.01, 0.5)

# Calls of one traced run; counts must repeat exactly for a seed, so the
# traced run does a fixed number of calls rather than running for a time.
TRACE_CALLS = {"sweep-light": 40, "sweep-heavy": 30, "state-probe": 20,
               "eval-cli": 12}


def outputs_per_call(workload: str) -> int:
    if workload in SWEEPS:
        return len(tau_values(workload))
    if workload == "state-probe":
        return PROBE_POINTS + PROBE_WIGNER + len(MOMENT_INDICES) + 1
    return 1


def tau_values(workload: str) -> list:
    """The tau axis of a sweep workload, as a ``start:stop:count`` axis."""
    import numpy as np

    start, stop, count = SWEEPS[workload][2].split(":")
    return [float(v) for v in np.linspace(float(start), float(stop), int(count))]


def _draw(workload: str, rng: random.Random, i: int) -> dict:
    if workload in SWEEPS:
        return {"lam": rng.uniform(*LAM_RANGE),
                "fmt": "csv" if i % 2 == 0 else "json"}
    if workload == "state-probe":
        return {"lam": rng.uniform(*PROBE_LAM), "tau": rng.uniform(*PROBE_TAU),
                "points": [[rng.uniform(-PROBE_COORD, PROBE_COORD)
                            for _ in range(4)] for _ in range(PROBE_POINTS)]}
    if workload == "eval-cli":
        return {"preset": rng.choice(EVAL_PRESETS),
                "lam": rng.uniform(*EVAL_LAM), "tau": rng.uniform(*EVAL_TAU),
                "phi": rng.uniform(*EVAL_PHI),
                "point": [rng.uniform(-1.0, 1.0) for _ in range(4)]}
    raise ValueError(f"unknown workload {workload!r}")


def inputs(workload: str, seed: int):
    """Endless stream of seeded call inputs."""
    rng = random.Random(f"{workload}:{seed}")
    for i in itertools.count():
        yield _draw(workload, rng, i)


def warmup_input(workload: str) -> dict:
    """An input outside every seeded stream, for the untimed first call."""
    return _draw(workload, random.Random(f"{workload}:warm-up"), 0)


def preset_spec(preset: str, tau: float):
    from ngtmsv import model

    kind, n = preset.rsplit("-", 1)
    return model.operation_from_table(kind, int(n), tau)


def sweep_call(workload: str):
    """The in-process unit of work of a sweep workload."""
    from ngtmsv import sweep

    quantity, preset, tau_text = SWEEPS[workload]

    def call(inp: dict) -> dict:
        request = sweep.SweepRequest(
            quantity=quantity, preset=preset,
            lam_axis=sweep.Axis.scalar(inp["lam"]),
            tau_axis=sweep.parse_axis(tau_text, "tau"),
            phi_axis=sweep.Axis.scalar(PHI))
        records = sweep.run_sweep(request)
        if inp["fmt"] == "csv":
            return {"text": sweep.to_csv(records)}
        return {"text": sweep.to_json(records)}

    return call


def probe_call(inp: dict) -> dict:
    """One state of the state-probe workload, queried many times."""
    from ngtmsv import analytics, model

    lam = inp["lam"]
    spec = model.operation_from_table(*PROBE_PRESET, inp["tau"])
    kernel = analytics.wigner_polynomial(lam, spec)
    points = inp["points"]
    return {
        "kernel": [kernel(pt) for pt in points],
        "wigner": [analytics.wigner(lam, spec, pt)
                   for pt in points[:PROBE_WIGNER]],
        "moments": [analytics.moment(lam, spec, idx) for idx in MOMENT_INDICES],
        "qfi": analytics.qfi(lam, spec),
    }


def in_process_call(workload: str):
    if workload in SWEEPS:
        return sweep_call(workload)
    if workload == "state-probe":
        return probe_call
    raise ValueError(f"{workload!r} has no in-process call")


def eval_argv(inp: dict) -> list:
    """``ngtmsv eval`` arguments for one eval-cli call."""
    return ["eval", f"--preset={inp['preset']}", f"--lambda={inp['lam']!r}",
            f"--tau={inp['tau']!r}", f"--phi={inp['phi']!r}",
            "--point=" + ",".join(repr(v) for v in inp["point"])]
