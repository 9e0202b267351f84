"""Benchmark of the clusteralg CLI: seeded workloads, checked outputs.

    python3 perfbench/run.py --workload derive-chain|dense-verify|screen-tensors
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

One process and one thread.  A run:

1. Set-up, repeated SETUP_REPEATS times with the median reported as
   ``setup_s``: import ``clusteralg`` from ``src/`` afresh (its modules are
   dropped from ``sys.modules`` first), build the catalog cold
   (``catalog.names()``) and generate and write the workload's bundles
   from the seed.  The last repeat's modules and inputs are used.
2. Reference pass, timed apart as ``oracle_s``: every op's expected
   result, from the brute-force oracles in ``tests/oracles.py``.
3. One warm-up cycle of the workload's fixed op list, with the tracer on;
   its exact work counters go into the result.
4. The timed part: whole cycles, as a closed loop (one client; the next
   op starts when the previous returns), until the ops' summed wall-clock
   latency reaches ``--seconds``.  Each op is ``cli.main(argv)`` with stdout
   captured in memory, and is checked against its expected result.
   An op's latency is the median of its calls over the cycles, each call
   on the calibrated clock below; ``ops_per_s`` is ops per cycle over the
   sum of those latencies, and the percentiles count each op's latency
   once per call made.
   ``--trace 0`` runs untraced and reports the end-to-end metrics;
   ``--trace 1`` runs traced and reports per-layer metrics per cycle,
   then runs one untraced cycle to measure the tracing overhead.

Calibrated clock.  The machine the benchmark runs on is shared, and its
speed for a single thread changes by up to about 1.9x, for seconds to
minutes at a time, with what other tenants run; the process's CPU time
moves with it.  So every timing is scaled by the machine's speed at that
moment: a fixed calibration kernel (exact rational arithmetic in plain
Python, using none of the program) is timed right before and after each
op and each set-up, and the timing is multiplied by REFERENCE_S over the
mean of the two.  Timings therefore read in milliseconds (seconds) of a
machine on which the kernel takes REFERENCE_S; the raw wall-clock
figures are in the full record under ``wall``, with ``machine_speed``.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full record:
provenance, sample counts, ``op_fail_ratio``, counters and overhead.
``op_fail_ratio`` is not an end-to-end metric in BENCHMARK.json because
it is 0 whenever the program is correct; ``failed`` carries it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Not used while the benchmark was written; re-check claims on it.
HELD_OUT_SEED = 3740
SETUP_REPEATS = 5
# The calibration kernel's time on an unloaded core of an Intel Xeon at
# Python 3.11; it sets the scale of every reported timing, not its spread.
REFERENCE_S = 1.15e-3

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
              "op_ms_p90": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "linalg.matmul.calls": "count", "linalg.matmul.self_s": "s",
    "linalg.matrix_new.calls": "count",
    "linalg.solve.calls": "count", "linalg.solve.self_s": "s",
    "core.check_axioms.calls": "count", "core.check_axioms.self_s": "s",
    "core.check_axioms.tuples": "count", "core.check_axioms.violations": "count",
    "core.derived_op.calls": "count", "core.derived_op.self_s": "s",
    "bimodules.check_bimodule.calls": "count", "bimodules.check_bimodule.self_s": "s",
    "bimodules.check_bimodule.violations": "count",
    "bimodules.construct.self_s": "s",
    "operators.is_o_operator.calls": "count", "operators.is_o_operator.self_s": "s",
    "operators.is_o_operator.violations": "count",
    "operators.induce.self_s": "s",
    "yangbaxter.slot_product.calls": "count", "yangbaxter.slot_product.self_s": "s",
    "yangbaxter.equation.calls": "count", "yangbaxter.equation.self_s": "s",
    "yangbaxter.equation.violations": "count",
    "yangbaxter.lift.self_s": "s",
    "forms.classify.calls": "count", "forms.classify.self_s": "s",
    "forms.finer.self_s": "s",
    "bundle.parse.self_s": "s", "bundle.parse.bytes": "count",
    "bundle.dumps.self_s": "s", "bundle.dumps.bytes": "count",
    "cli.main.self_s": "s", "cli.exit1.count": "count",
    "catalog.build.self_s": "s",
}

_CLOCK = time.perf_counter
_CAL = [[Fraction(i + 2 * j + 1, j + 3) for j in range(6)] for i in range(6)]


def calibration() -> float:
    """Time of one call of the calibration kernel: two 6x6 products of a
    fixed rational matrix, the kind of work the program's checks do."""
    start = _CLOCK()
    a = _CAL
    for _ in range(2):
        {(i, j): sum(a[i][k] * a[k][j] for k in range(6)) for i in range(6) for j in range(6)}
    return _CLOCK() - start


def _scaled(elapsed: float, before: float, after: float) -> float:
    """`elapsed` on the calibrated clock, the kernel timed either side."""
    return elapsed * REFERENCE_S * 2 / (before + after)


def _drop_modules(*names: str) -> None:
    for mod in list(sys.modules):
        if any(mod == n or mod.startswith(n + ".") for n in names):
            del sys.modules[mod]


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_once(workload: str, work: Path, seed: int, smoke: bool):
    """Import clusteralg afresh, build the catalog and write the inputs."""
    _drop_modules("clusteralg", "oracles")
    _fresh_dir(work)
    before = statistics.median(calibration() for _ in range(5))
    start = _CLOCK()
    ca = importlib.import_module("clusteralg")
    for sub in ("catalog", "bundle", "cli"):
        importlib.import_module(f"clusteralg.{sub}")
    ca.catalog.names()
    inputs = workloads.WORKLOADS[workload][0](ca, work, seed, smoke)
    elapsed = _CLOCK() - start
    after = statistics.median(calibration() for _ in range(5))
    return _scaled(elapsed, before, after), ca, inputs


def run_cycle(ops, cli_main, tracer, traced: bool, cycle_dir: Path):
    """Run every op once; returns (latencies on the calibrated clock, wall
    times, failed labels, exit-1 count)."""
    _fresh_dir(cycle_dir)
    latencies, wall, failed, exit1 = [], [], [], 0
    cal = calibration()
    for op in ops:
        if op.before:
            op.before()
        out, err = io.StringIO(), io.StringIO()
        rc = None
        tracer.active = traced
        start = _CLOCK()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(op.argv)
        except Exception:  # an op that raises counts as failed; keep going
            err.write(traceback.format_exc())
        finally:
            elapsed = _CLOCK() - start
            tracer.active = False
        before, cal = cal, calibration()
        latencies.append(_scaled(elapsed, before, cal))
        wall.append(elapsed)
        exit1 += rc == 1
        try:
            ok = rc is not None and op.expect(rc, out.getvalue()) and (
                op.after is None or op.after())
        except Exception:
            err.write(traceback.format_exc())
            ok = False
        if not ok:
            failed.append(op.label)
            if len(failed) <= 3:
                print(f"FAILED {op.label}: rc={rc} {' '.join(op.argv)}\n"
                      f"{out.getvalue()[-400:]}{err.getvalue()[-800:]}", file=sys.stderr)
    return latencies, wall, failed, exit1


def _git_sha() -> str | None:
    """HEAD of the checkout read from .git, when it is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_sha": _git_sha(), "seed": seed,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}


def _per_cycle(tracer, cycles: int) -> dict:
    out = {f"{k}.calls": v / cycles for k, v in tracer.calls.items()}
    out.update({f"{k}.self_s": v / cycles for k, v in tracer.self_s.items()})
    out.update({k: v / cycles for k, v in tracer.counts.items()})
    return out


def _latency_metrics(latencies: list[float], per_cycle: int) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_p90 from a run's latencies in seconds,
    `per_cycle` ops a cycle.  Each op's latency is the median of its calls;
    the percentiles count it once per call made, so ranks and the samples
    beyond p90 are those of every call in the run."""
    cycles = len(latencies) // per_cycle
    per_op = [statistics.median(latencies[i::per_cycle]) * 1e3 for i in range(per_cycle)]
    per_call = sorted(x for x in per_op for _ in range(cycles))
    return {"ops_per_s": 1e3 * per_cycle / sum(per_op),
            "op_ms_p50": statistics.median(per_call),
            "op_ms_p90": statistics.quantiles(per_call, n=10)[-1]}


def run(workload: str, seed: int = DEFAULT_SEED, seconds: float = 10.0,
        trace: bool = False, smoke: bool = False, after_setup=None) -> dict:
    """One benchmark run; returns the full record.

    `after_setup(ca)` runs once the inputs and expectations exist, before
    any op: a test uses it to break a checker on purpose.
    """
    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        setups = [setup_once(workload, work / "inputs", seed, smoke)
                  for _ in range(SETUP_REPEATS)]
        _, ca, inputs = setups[-1]
        src = (ROOT / "src").resolve()
        if src not in Path(ca.__file__).resolve().parents:
            raise SystemExit(f"clusteralg was imported from {ca.__file__}, not {src}")
        cycle_dir = work / "cycle"

        start = _CLOCK()
        oracles = importlib.import_module("oracles")
        ops = workloads.WORKLOADS[workload][1](ca, inputs, oracles, cycle_dir, smoke)
        oracle_s = _CLOCK() - start
        if after_setup:
            after_setup(ca)

        tracer = spans.Tracer()
        tracer.install()
        cli_main = ca.cli.main
        catalog_build_s = None
        if trace:
            ca.catalog._build.__wrapped__.cache_clear()
            tracer.active = True
            ca.catalog.names()
            tracer.active = False
            catalog_build_s = tracer.self_s["catalog.build"]
            tracer.reset()

        warm, _, warm_failed, warm_exit1 = run_cycle(ops, cli_main, tracer, True, cycle_dir)
        counters = _per_cycle(tracer, 1)
        counters["cli.exit1.count"] = warm_exit1
        counters = {k: v for k, v in sorted(counters.items()) if not k.endswith("self_s")}
        tracer.reset()
        if not trace:
            tracer.uninstall()

        latencies, wall, failed, cycle_times, exit1 = [], [], [], [], 0
        while not cycle_times or sum(wall) < seconds:
            lat, raw, bad, ones = run_cycle(ops, cli_main, tracer, trace, cycle_dir)
            latencies += lat
            wall += raw
            failed += bad
            exit1 += ones
            cycle_times.append(sum(lat))
        cycles = len(cycle_times)
        per_layer = None
        if trace:
            per_layer = _per_cycle(tracer, cycles)
            per_layer["cli.exit1.count"] = exit1 / cycles
            per_layer["catalog.build.self_s"] = catalog_build_s
            tracer.uninstall()
            untraced = sum(run_cycle(ops, cli_main, tracer, False, cycle_dir)[0])
            overhead = statistics.median(cycle_times) / untraced - 1
        else:
            overhead = sum(warm) / statistics.median(cycle_times) - 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
        for path in (str(ROOT / "src"), str(ROOT / "tests")):
            sys.path.remove(path)

    metrics = {
        "setup_s": statistics.median(s[0] for s in setups),
        **_latency_metrics(latencies, len(ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "workload": workload, "trace": int(trace), "smoke": smoke,
        "provenance": provenance(seed),
        "samples": {"ops": len(latencies), "cycles": cycles, "ops_per_cycle": len(ops),
                    "setup_repeats": SETUP_REPEATS},
        "attempted": len(latencies), "failed": len(failed),
        "warmup_failed": len(warm_failed),
        "op_fail_ratio": len(failed) / len(latencies),
        "metrics": metrics,
        "per_layer": per_layer,
        "counters_per_cycle": counters,
        "oracle_s": oracle_s,
        "tracing_overhead": overhead,
        "tracing_overhead_basis": ("median traced cycle vs one untraced cycle" if trace
                                   else "traced warm-up cycle vs median untraced cycle"),
        "cycle_s": cycle_times, "warmup_s": sum(warm),
        "wall": _latency_metrics(wall, len(ops)),
        "machine_speed": sum(cycle_times) / sum(wall),
        "failed_ops": sorted(set(failed + warm_failed))[:20],
    }


def result_line(record: dict) -> dict:
    """The contract's last line: end-to-end metrics, or per-layer ones."""
    if record["per_layer"] is None:
        metrics = {k: {"value": record["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        metrics = {k: {"value": record["per_layer"].get(k, 0), "unit": u}
                   for k, u in PER_LAYER.items()}
    return {"correct": record["failed"] == 0 and record["warmup_failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
