"""The benchmark's own test, on the tiny inputs of its smoke mode.

    python -m pytest -q perfbench/bench_selftest.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(run.workloads.WORKLOADS)


def _bench(capsys, workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """Run the command in smoke mode; return (full record, result line)."""
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    record, result = capsys.readouterr().out.splitlines()[-2:]
    return json.loads(record), json.loads(result)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_and_counts_repeat(capsys, workload):
    record, result = _bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = [_bench(capsys, workload, trace=1) for _ in range(2)]
    for rec, res in traced:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}
              for _, res in traced]
    assert counts[0] == counts[1]
    assert record["counters_per_cycle"] == traced[0][0]["counters_per_cycle"] \
        == traced[1][0]["counters_per_cycle"]


def _always_ok(name: str):
    """An after_setup hook: the checker `name`, as bound in cli (its module
    attribute and its --equation dispatch entry), reports no violations."""
    def patch(ca):
        def passing(*_args, **_kwargs):
            return ca.core.Report(())
        original = getattr(ca.cli, name)
        setattr(ca.cli, name, passing)
        for key, (level, checker) in list(ca.cli._EQ_CHECKERS.items()):
            if checker is original:
                ca.cli._EQ_CHECKERS[key] = (level, passing)
    return patch


@pytest.mark.parametrize("workload, checker", [("dense-verify", "check_axioms"),
                                               ("screen-tensors", "check_q_equation")])
def test_gate_bites_when_a_checker_always_passes(workload, checker):
    record = run.run(workload, seed=7, seconds=0.05, smoke=True,
                     after_setup=_always_ok(checker))
    assert record["op_fail_ratio"] > 0
    assert not run.result_line(record)["correct"]
