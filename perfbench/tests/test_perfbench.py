"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads as wl

ROOT = Path(run.__file__).resolve().parent.parent


def bench(*args) -> tuple:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_runner():
    assert declared("end_to_end") == dict(run.END_TO_END)
    assert declared("per_layer") == dict(run.per_layer_names())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_reports_every_metric(workload, trace):
    result, lines = bench("--workload", workload, "--seed", "3",
                          "--seconds", "0.5", "--trace", trace, "--calls", "2")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(name + " ") and line.endswith(" " + unit)
                   for line in lines), name
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name, unit in run.UNDECLARED:
            assert any(line.startswith(name + " ") and f" {unit} " in line
                       for line in lines), name


COUNTS = (".calls", ".calls_per_pt", "series.coeff_entries",
          "series.max_entries", "sweep.emit_bytes", "oracle.checked")


@pytest.mark.parametrize("workload, engine_calls_per_pt",
                         [("sweep-light", 5), ("sweep-heavy", 4)])
def test_counts_repeat_for_a_seed(workload, engine_calls_per_pt):
    args = ("--workload", workload, "--seconds", "1", "--trace", "1",
            "--calls", "2")
    first, _ = bench(*args, "--seed", "5")
    second, _ = bench(*args, "--seed", "5")
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if k.endswith(COUNTS)}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert counts["series.calls_per_pt"] == engine_calls_per_pt
    assert counts["analytics.calls"] > 0


def test_different_seeds_give_different_inputs():
    for workload in wl.WORKLOADS:
        a, b, c = (next(wl.inputs(workload, seed)) for seed in (1, 1, 2))
        assert a == b and a != c


def sweep_call(workload: str, lam: float, fmt: str) -> dict:
    inp = {"lam": lam, "fmt": fmt}
    return {"input": inp, "latency_s": 0.0,
            "output": wl.in_process_call(workload)(inp)}


def test_check_passes_true_outputs():
    calls = [sweep_call("sweep-light", 0.4, "csv"),
             sweep_call("sweep-light", 0.3, "json")]
    tally = checks.check("sweep-light", calls, 0)
    assert tally.attempted == 2 * 101 and not tally.failed
    assert tally.oracle_checked > 0


def test_wrong_sweep_output_is_caught_by_the_oracle():
    call = sweep_call("sweep-light", 0.4, "json")
    rows = json.loads(call["output"]["text"])
    for row in rows:  # too small for any cheap invariant to notice
        row["value"] *= 1.0 + 1e-5
    call["output"]["text"] = json.dumps(rows)
    tally = checks.check("sweep-light", [call], 0)
    assert tally.failed and len(tally.failed) / tally.attempted > 0


def test_wrong_eval_output_counts_as_failed():
    inp = next(wl.inputs("eval-cli", 1))
    done = subprocess.run(
        [sys.executable, "-m", "ngtmsv.cli", *wl.eval_argv(inp)],
        env=run.pinned_env(), capture_output=True, text=True, timeout=60)
    good = {"input": inp, "latency_s": 0.0,
            "output": {"returncode": done.returncode, "stdout": done.stdout}}
    assert not checks.check("eval-cli", [good], 0).failed
    lines = [("probability     1.5" if line.startswith("probability") else line)
             for line in done.stdout.splitlines()]
    bad = dict(good, output=dict(good["output"], stdout="\n".join(lines)))
    crashed = dict(good, output={"returncode": 1, "stdout": "", "stderr": "boom"})
    tally = checks.check("eval-cli", [good, bad, crashed], 0)
    assert tally.attempted == 3 and tally.failed == {1, 2}


def test_missing_package_exits_nonzero():
    bare = run.OUT / "bare-checkout"  # the benchmark alone, without src/
    bench_dir = bare / "perfbench"
    bench_dir.mkdir(parents=True, exist_ok=True)
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench_dir / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()
