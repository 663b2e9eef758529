#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Runs every workload through ``run.main`` with one or two operations
(the reference campaign on ``tiny/reference.ini``) and asserts that:

* BENCHMARK.json is what ``run.spec()`` generates;
* each run emits exactly the metrics BENCHMARK.json names, each with its
  unit, untraced and traced, with no failed operation;
* the traced reference campaign's stage spans sum to its wall time;
* a corrupted artifact digest and a perturbed rate ratio each count as a
  failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run

TINY = os.path.join(run.HERE, "tiny")


def run_main(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_emitted(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result = run_main(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == wanted, (workload, trace, set(emitted) ^ set(wanted))
            assert all(isinstance(m["value"], float) for m in result["metrics"].values())
            print(f"ok: {workload} trace={trace} emits {len(emitted)} metrics")
    with open(os.path.join(run.OUT_ROOT, "results", "reference_cli-seed1-trace1.json")) as fh:
        trace_report = json.load(fh)["trace"]
    assert trace_report["stage_sum_ok"], trace_report
    print(f"ok: stage spans cover the campaign ({trace_report['stage_sum_over_campaign']})")


def check_failures_counted():
    import workloads
    from haloscan import receiver

    nproc = len(os.sched_getaffinity(0))
    work_dir = os.path.join(run.OUT_ROOT, "selftest")
    reference = run.make_workload("reference_cli", 1, work_dir, nproc)
    assert workloads.run_ops(reference, 0, 1).failed == 0
    name = sorted(reference.first_digests)[0]
    reference.first_digests[name] = "0" * 64
    outcome = workloads.run_ops(reference, 0, 1)
    assert outcome.failed == 1 and "artifacts vs first run" in outcome.problems[0], outcome
    print(f"ok: corrupted digest of {name} counted as failed")

    original = receiver.report_enhancement

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        report["rate_ratio"] *= 1.0 + 1e-6
        return report

    sweep = run.make_workload("receiver_sweep", 1, work_dir, nproc)
    receiver.report_enhancement = perturbed
    try:
        outcome = workloads.run_ops(sweep, 0, 1)
    finally:
        receiver.report_enhancement = original
    assert outcome.failed == 1 and "rate_ratio" in outcome.problems[0], outcome
    print("ok: perturbed rate ratio counted as failed")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec == run.spec(), "BENCHMARK.json is stale: run perfbench/run.py --write-spec"
    run.SETUP_REPEATS = 1
    run.WORKLOADS = {
        "reference_cli": (os.path.join(TINY, "reference.ini"), 1, ""),
        "ensemble_injection": (run.WORKLOADS["ensemble_injection"][0], 2, ""),
        "receiver_sweep": (run.WORKLOADS["receiver_sweep"][0], 2, ""),
    }
    check_emitted(spec)
    sys.path.insert(0, run.SRC)
    check_failures_counted()
    print("selftest passed")


if __name__ == "__main__":
    main()
