#!/usr/bin/env python3
"""haloscan benchmark: three workloads against the package under ``src/``.

    python3 perfbench/run.py --workload reference_cli --seed 1 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) with its unit, writes the full results with provenance to
``.perfbench_out/results/``, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``python3 perfbench/run.py --write-spec`` regenerates BENCHMARK.json from
the tables below.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

RUN_SECONDS = 25
MAX_THREADS = 2
SETUP_REPEATS = 3
TAIL_LADDER = (99, 95, 90, 75, 50)  # highest one with >= 10 operations beyond it

# name: (config, minimum operations per run, why)
WORKLOADS = {
    "reference_cli": (
        "reference.ini", 3,
        "production-shape haloscan all (50 x 30k bins) plus a process/exclude re-run: "
        "the only workload with artifact I/O and exclusion",
    ),
    "ensemble_injection": (
        "ensemble.ini", 100,
        "criterion-7 injection seeds in memory: simulate, calibrate, SG reduction on "
        "50- and 1-8-spectrum groups, no I/O or exclusion",
    ),
    "receiver_sweep": (
        "reference.ini", 40,
        "noise budgets and coupling-optimized scan rates at operating points near the "
        "reference receiver; no files, no pipeline",
    ),
}

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better, kind, key).  Kinds: "total" and "self" seconds of
# the span named key, "spans" the number of those spans, "count" a
# counter, "mb" a byte counter in MB, all per traced operation; "mean" a
# counter per call of the span that fills it, key (counter, span).
PROCESS, EXCLUSION = "pipeline.process", "inference.exclusion"
PER_LAYER = (
    ("cli.simulate_s", "s", "lower", "total", "cli.simulate"),
    ("cli.calibrate_s", "s", "lower", "total", "cli.calibrate"),
    ("cli.process_s", "s", "lower", "total", "cli.process"),
    ("cli.exclude_s", "s", "lower", "total", "cli.exclude"),
    ("cli.budget_s", "s", "lower", "total", "cli.budget"),
    ("cli.enhancement_s", "s", "lower", "total", "cli.enhancement"),
    ("config.load_s", "s", "lower", "total", "config.load"),
    ("spectra.write_s", "s", "lower", "total", "spectra.write"),
    ("spectra.written", "count", "lower", "count", "spectra.written"),
    ("spectra.write_mb", "MB", "lower", "mb", "spectra.write_bytes"),
    ("spectra.read_s", "s", "lower", "total", "spectra.read"),
    ("spectra.read", "count", "lower", "count", "spectra.read"),
    ("campaign.simulate_s", "s", "lower", "total", "campaign.simulate"),
    ("campaign.steps", "count", "lower", "count", "campaign.steps"),
    ("campaign.rescan_s", "s", "lower", "total", "campaign.rescan"),
    ("campaign.rescan_steps", "count", "lower", "count", "campaign.rescan_steps"),
    ("calibration.fit_s", "s", "lower", "total", "calibration.fit"),
    ("calibration.fits", "count", "lower", "count", "calibration.fits"),
    ("calibration.flagged", "count", "lower", "count", "calibration.flagged"),
    ("pipeline.remove_structure_s", "s", "lower", "total", "pipeline.remove_structure"),
    ("pipeline.filter_transfer_s", "s", "lower", "total", "pipeline.filter_transfer"),
    ("pipeline.spectra_filtered", "count", "lower", "count", "pipeline.spectra_filtered"),
    ("pipeline.groups", "count", "lower", "count", "pipeline.groups"),
    ("pipeline.combine_s", "s", "lower", "total", "pipeline.combine"),
    ("pipeline.coadd_s", "s", "lower", "total", "pipeline.coadd"),
    ("pipeline.grand_write_s", "s", "lower", "total", "pipeline.grand_write"),
    ("pipeline.grand_read_s", "s", "lower", "total", "pipeline.grand_read"),
    ("pipeline.kept_frac", "ratio", "higher", "mean", ("pipeline.kept_frac", PROCESS)),
    ("pipeline.valid_frac", "ratio", "higher", "mean", ("pipeline.valid_frac", PROCESS)),
    ("pipeline.x_mean", "sigma", "lower", "mean", ("pipeline.x_mean", PROCESS)),
    ("pipeline.x_var", "sigma2", "lower", "mean", ("pipeline.x_var", PROCESS)),
    ("pipeline.candidates", "count", "lower", "mean", ("pipeline.candidates", PROCESS)),
    ("pipeline.persisted", "count", "lower", "mean", ("pipeline.persisted", PROCESS)),
    ("axion.reference_amplitude_s", "s", "lower", "total", "axion.reference_amplitude"),
    ("receiver.noise_budget_s", "s", "lower", "total", "receiver.noise_budget"),
    ("receiver.noise_budget_calls", "count", "lower", "spans", "receiver.noise_budget"),
    ("receiver.optimize_coupling_s", "s", "lower", "total", "receiver.optimize_coupling"),
    ("receiver.scan_rate_s", "s", "lower", "total", "receiver.scan_rate"),
    ("receiver.quad_calls", "count", "lower", "count", "receiver.quad_calls"),
    ("inference.exclusion_s", "s", "lower", "total", "inference.exclusion"),
    ("inference.curve_s", "s", "lower", "total", "inference.curve"),
    ("inference.root_s", "s", "lower", "self", "inference.root"),
    ("inference.windows_s", "s", "lower", "total", "inference.windows"),
    ("inference.write_s", "s", "lower", "total", "inference.write"),
    ("inference.included_bins", "count", "higher", "mean",
     ("inference.included_bins", EXCLUSION)),
    ("inference.grid_points", "count", "lower", "mean", ("inference.grid_points", EXCLUSION)),
    ("inference.windows", "count", "lower", "mean", ("inference.windows", EXCLUSION)),
)

STAGE_SUM_TOLERANCE = 0.05  # cli.*_s spans against the traced campaign_s

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import haloscan
from haloscan.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, _, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


# -- measurements ---------------------------------------------------------


def measure_setup(config_path):
    """Seconds to import haloscan and load the config, each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, config_path], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(times):
    """(percentile, value): the highest ladder percentile with >= 10 operations
    beyond it, or the slowest operation when there are fewer than 20."""
    for p in TAIL_LADDER:
        if len(times) * (1.0 - p / 100.0) >= 10:
            return p, float(numpy.percentile(times, p))
    return 100, max(times)


def end_to_end_metrics(outcome, setup_samples):
    times = outcome.op_times
    percentile, tail_s = tail(times) if times else (None, 0.0)
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / outcome.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"tail_percentile": percentile, "tail_samples": len(times)}


def per_layer_metrics(outcome):
    tracer = outcome.tracer
    total, self_time = tracer.durations()
    n_spans = Counter(span.name for span in tracer.spans)
    n_ops = max(len(outcome.traced_times), 1)
    values = {}
    for name, _, _, kind, key in PER_LAYER:
        if kind == "mean":
            value = tracer.counts[key[0]] / max(n_spans[key[1]], 1)
        else:
            per_run = {"total": total, "self": self_time, "spans": n_spans,
                       "count": tracer.counts, "mb": tracer.counts}[kind][key]
            value = per_run / (1e6 if kind == "mb" else 1.0) / n_ops
        values[name] = float(value)
    return values


def trace_report(outcome):
    """Tracing overhead and how well the spans cover the campaign stages."""
    tracer = outcome.tracer
    ratios = [t / u - 1.0 for t, u in zip(outcome.traced_times, outcome.paired_untraced)]
    report = {
        "overhead": statistics.median(ratios) if ratios else None,
        "pairs": len(ratios),
        "spans": len(tracer.spans),
    }
    children = tracer.children()
    stage_sums, coverage = [], {}
    for index, span in enumerate(tracer.spans):
        duration = span.end - span.start
        if span.name == "bench.campaign":
            stages = sum(tracer.spans[c].end - tracer.spans[c].start
                         for c in children.get(index, ()))
            stage_sums.append(stages / duration)
        elif span.name.startswith("cli."):
            covered, seconds = coverage.get(span.name, (0.0, 0.0))
            coverage[span.name] = (covered + tracer.covered(index, children),
                                   seconds + duration)
    if stage_sums:
        report["stage_sum_over_campaign"] = stage_sums
        report["stage_sum_ok"] = all(abs(r - 1.0) <= STAGE_SUM_TOLERANCE for r in stage_sums)
        report["stage_layer_coverage"] = {k: c / s for k, (c, s) in coverage.items()}
    return report


# -- provenance -----------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, nproc):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
    }


# -- entry point ----------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def make_workload(name, seed, work_dir, nproc):
    import workloads

    config_path = os.path.join(CONFIGS, WORKLOADS[name][0])
    if name == "reference_cli":
        return workloads.ReferenceCli(config_path, seed, work_dir, min(nproc, MAX_THREADS))
    if name == "ensemble_injection":
        return workloads.EnsembleInjection(config_path, seed)
    return workloads.ReceiverSweep(config_path, seed)


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    config_path = os.path.join(CONFIGS, WORKLOADS[args.workload][0])
    for needed in (os.path.join(SRC, "haloscan", "__init__.py"), config_path):
        if not os.path.isfile(needed):
            print(f"perfbench: {os.path.relpath(needed, ROOT)} not found; run from a "
                  "checkout of the haloscan repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    import workloads

    nproc = len(os.sched_getaffinity(0))
    setup_samples = measure_setup(config_path)
    work_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, work_dir, nproc)
        min_ops = WORKLOADS[args.workload][1]
        outcome = workloads.run_ops(workload, args.seconds, min_ops, trace=bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    e2e, tail_info = end_to_end_metrics(outcome, setup_samples)
    results = provenance(args, nproc)
    results.update(tail_info)
    results.update(
        output_dir=os.path.relpath(work_dir, ROOT),
        setup_samples_s=setup_samples,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems[:50],
        op_times_s=outcome.op_times,
        workload_info=outcome.info,
        end_to_end=e2e,
    )
    if args.trace:
        table, units = per_layer_metrics(outcome), {n: u for n, u, *_ in PER_LAYER}
        results["per_layer"] = table
        results["trace"] = trace_report(outcome)
    else:
        table, units = e2e, {n: u for n, u, *_ in END_TO_END}

    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    results_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results_path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")

    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in table.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.trace:
        print(f"trace = {json.dumps(results['trace'])}")
        if results["trace"].get("stage_sum_ok") is False:
            print("WARNING cli.*_s stage spans do not cover the traced campaign "
                  f"within {STAGE_SUM_TOLERANCE:.0%}", file=sys.stderr)
    print(f"results = {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
