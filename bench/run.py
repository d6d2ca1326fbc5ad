"""The frsense benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep-dpgmm --seed 1 --seconds 15 --trace 0

Workloads: sweep-dpgmm, sweep-dcv-t2, sweep-dp, summaries (see README.md).
With ``--trace 0`` every measured operation is a fresh child process that
uses only the package's public entry points, and the end-to-end metrics
are printed.  With ``--trace 1`` one child re-runs the workload in-process
with spans around the calls into each module and the per-layer metrics are
printed.  The last line of stdout is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
when a result was printed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time

import common

#: Fresh ``validate-config`` children per run whose median is ``setup_s``.
SETUP_REPEATS = 5

#: Measured operations per run, even when ``--seconds`` is shorter.
MIN_RUNS = 3

#: Nothing new is started once a run is this old, so it ends well before
#: the three-minute limit.
RUN_BUDGET = 165.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "tasks_per_s": "1/s",
    "draws_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return max(self.deadline - time.monotonic(), 1.0)


def blas_version() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_lines(args) -> list:
    import numpy as np
    import scipy

    return [
        f"frsense benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"environment: python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas={blas_version()} "
        f"blas_threads={common.BLAS_THREADS} (pinned in every child) "
        f"cpu_count={os.cpu_count()} cpu={cpu_model()!r}",
    ]


def quartile_text(values, unit: str) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g} {unit}, q3 {q3:.6g} {unit}, max {max(values):.6g} {unit}"


def sweep_workload(args, work: str, budget: Budget):
    import checks
    import inputs

    w = inputs.SWEEPS[args.workload]
    ini = inputs.write_sweep_inputs(args.workload, args.seed, work)
    lines = [
        f"input: {inputs.N_OBS} observations from seed {args.seed}; {w.model} "
        f"{w.parameter} over {', '.join('%g' % v for v in w.values)}; "
        f"{w.replicates} replicates; mcmc n_samples={w.n_samples} burn_in={w.burn_in} "
        f"thin={w.thin}; --threads {w.threads}; densities={w.densities}",
        f"size: {w.tasks} sampler runs of {w.n_samples} draws per sweep child",
    ]
    ops = common.Operations()
    validate = [*common.CLI, "validate-config", "--config", ini]

    def validate_problems(child):
        problems = common.exit_problems("validate-config", child)
        if not problems and f"sampler runs: {w.tasks}" not in child.stdout:
            problems.append("validate-config did not report the planned sampler runs")
        return problems

    # The first child compiles bytecode and warms the file cache; it is
    # checked but not timed.
    warm = common.run_child(validate, timeout=budget.left())
    ops.record(validate_problems(warm))
    setup = []
    for _ in range(SETUP_REPEATS):
        child = common.run_child(validate, timeout=budget.left())
        if ops.record(validate_problems(child)):
            setup.append(child.wall_s)

    walls, rss, first_hashes, identical = [], [], None, True
    start, runs = time.monotonic(), 0
    while (runs < MIN_RUNS or time.monotonic() - start < args.seconds) and budget.left() > 1.0:
        runs += 1
        out = os.path.join(work, f"out-{runs}")
        child = common.run_child(
            [*common.CLI, "sweep", "--config", ini, "--out", out, "--threads", str(w.threads)],
            timeout=budget.left(),
        )
        problems = common.exit_problems("sweep", child)
        if not problems:
            files = ["sweep.csv", "bands.csv"] + (["densities.csv"] if w.densities else [])
            problems += checks.check_sweep_csv(os.path.join(out, "sweep.csv"), w.values, inputs.D_COMPONENTS)
            problems += checks.check_bands_csv(os.path.join(out, "bands.csv"), w.band_values, inputs.D_COMPONENTS)
            if w.densities:
                problems += checks.check_density_csv(os.path.join(out, "densities.csv"), w.n_samples)
            hashes = {f: checks.sha256(os.path.join(out, f)) for f in files}
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                identical = False
                problems.append("sweep outputs differ from the first run of this set")
        if ops.record(problems):
            walls.append(child.wall_s)
            rss.append(child.peak_rss_mb)
        shutil.rmtree(out, ignore_errors=True)

    metrics, more = {}, []
    if walls and setup:
        wall = common.median(walls)
        metrics = {
            "wall_s": wall,
            "tasks_per_s": w.tasks / wall,
            "draws_per_s": w.tasks * w.n_samples / wall,
            "setup_s": common.median(setup),
            "peak_rss_mb": common.median(rss),
        }
        more = [
            f"wall_s = {wall:.6g} s  (median of {len(walls)} `frsense sweep` children, "
            f"import included; {quartile_text(walls, 's')})",
            common.ratio_text("tasks_per_s", metrics["tasks_per_s"], "1/s",
                              w.tasks, "sampler runs", wall, "wall_s"),
            common.ratio_text("draws_per_s", metrics["draws_per_s"], "1/s",
                              w.tasks * w.n_samples, "draws summarized", wall, "wall_s"),
            f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(setup)} fresh "
            f"`frsense validate-config` children; {quartile_text(setup, 's')})",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB  (median over the sweep "
            f"children, each read with wait4; max {max(rss):.6g} MB)",
        ]
    if first_hashes:
        more += [f"sha256 {f} = {h}" for f, h in first_hashes.items()]
        more.append(f"outputs byte-identical across the {runs} sweep children: "
                    f"{'yes' if identical else 'NO'}")
    return lines + more, metrics, ops


def summaries_workload(args, work: str, budget: Budget):
    import numpy as np

    import checks
    import inputs

    paths = inputs.write_summary_inputs(args.seed, work)
    shapes = list(paths)
    rows = {shape: checks.read_matrix(paths[shape])[1:] for shape in shapes}
    lines = [
        f"input: density matrices from seed {args.seed} on the {inputs.N_POINTS}-point grid: "
        + ", ".join(f"{s} {rows[s].shape[0]} draws ({os.path.getsize(paths[s])} bytes)" for s in shapes),
    ]
    ops = common.Operations()
    script = os.path.join(common.ROOT, "bench", "summaries_child.py")
    npz = os.path.join(work, "summary.npz")
    verified = None

    def one_run():
        nonlocal verified
        child = common.run_child(
            [script, repr(time.monotonic()), npz, *paths.values()], timeout=budget.left()
        )
        problems = common.exit_problems("summaries child", child)
        timing = None
        if not problems:
            try:
                timing = common.last_json_line(child.stdout)
                with np.load(npz) as data:
                    result = {k: data[k].copy() for k in data.files}
            except (ValueError, OSError) as exc:
                return child, None, [f"summaries child left no readable result: {exc}"]
            if verified is None:
                problems += check_summaries(result, rows, shapes, lines)
                verified = result
            elif any(not np.array_equal(result[k], verified[k]) for k in verified):
                problems.append("summaries differ from the first run of this set")
        return child, timing, problems

    # First child: compiles bytecode, is checked against the reference, not timed.
    child, _, problems = one_run()
    ops.record(problems)
    walls, setup, rss = [], [], []
    start, runs = time.monotonic(), 0
    while (runs < MIN_RUNS or time.monotonic() - start < args.seconds) and budget.left() > 1.0:
        runs += 1
        child, timing, problems = one_run()
        if ops.record(problems):
            walls.append(timing["region_s"])
            setup.append(timing["import_s"])
            rss.append(child.peak_rss_mb)

    metrics, more = {}, []
    n_draws = sum(r.shape[0] for r in rows.values())
    if walls:
        wall = common.median(walls)
        metrics = {
            "wall_s": wall,
            "tasks_per_s": len(shapes) / wall,
            "draws_per_s": n_draws / wall,
            "setup_s": common.median(setup),
            "peak_rss_mb": common.median(rss),
        }
        more = [
            f"wall_s = {wall:.6g} s  (median of {len(walls)} children's timed region after "
            f"import: read, summarize both matrices, compare; {quartile_text(walls, 's')})",
            common.ratio_text("tasks_per_s", metrics["tasks_per_s"], "1/s",
                              len(shapes), "samples summarized", wall, "wall_s"),
            common.ratio_text("draws_per_s", metrics["draws_per_s"], "1/s",
                              n_draws, "density rows read and summarized", wall, "wall_s"),
            f"setup_s = {metrics['setup_s']:.6g} s  (median of {len(setup)} children, spawn "
            f"to end of `import frsense`; {quartile_text(setup, 's')})",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB  (median over the children, "
            f"each read with wait4; max {max(rss):.6g} MB)",
        ]
    return lines + more, metrics, ops


def check_summaries(result: dict, rows: dict, shapes: list, lines: list) -> list:
    import checks

    problems = []
    for i, shape in enumerate(shapes):
        found, info = checks.check_summary(
            rows[shape], result[f"mean{i}"], float(result[f"variance{i}"]),
            result[f"omega{i}"], eps1=1e-6, eps2=0.5, max_iter=200, label=shape,
        )
        problems += found
        lines.append(
            f"{shape}: Karcher variance {info['karcher_variance']:.6g}, "
            f"{info['karcher_iters']} Karcher iterations, mean {info['fixed_point_gap']:.2e} "
            "from the fixed point (reference, plain numpy)"
        )
    d_ref = 2.0 * math.asin(min(1.0, 0.5 * math.sqrt(
        float(((result["mean0"] - result["mean1"]) ** 2) @ checks.trapezoid_weights(result["mean0"].size)))))
    v_ref = math.log(float(result["variance1"])) - math.log(float(result["variance0"]))
    e_ref = float(((result["omega0"] - result["omega1"]) ** 2).sum() ** 0.5)
    got = [float(v) for v in result["triple"]]
    if any(abs(a - b) > checks.FLOAT_SLACK for a, b in zip(got, (d_ref, v_ref, e_ref))):
        problems.append(f"triple {got} does not match the summaries ({d_ref}, {v_ref}, {e_ref})")
    problems += checks.measure_problems("triple", *got, len(result["omega0"]))
    return problems


def traced(args, work: str, budget: Budget):
    script = os.path.join(common.ROOT, "bench", "trace_run.py")
    child = common.run_child(
        [script, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--dir", work, "--spawned", repr(time.monotonic())],
        timeout=budget.left(),
    )
    ops = common.Operations()
    problems = common.exit_problems("traced run", child)
    if not problems:
        try:
            report = common.last_json_line(child.stdout)
        except ValueError as exc:
            problems = [f"traced run printed no report: {exc}"]
    if problems:
        ops.record(problems)
        return [], {}, ops
    ops.attempted = report["attempted"]
    ops.failed = report["failed"]
    ops.problems = report["problems"]
    return report["lines"], report["metrics"], ops


def main(argv=None) -> int:
    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    budget = Budget(RUN_BUDGET)
    work = os.path.join(common.WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        header = environment_lines(args)
        if args.trace:
            lines, metrics, ops = traced(args, work, budget)
        elif args.workload == "summaries":
            lines, metrics, ops = summaries_workload(args, work, budget)
        else:
            lines, metrics, ops = sweep_workload(args, work, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in header + lines:
        print(line)
    print(common.ratio_text("failed_frac", common.ratio(ops.failed, ops.attempted), "",
                            ops.failed, "failed", ops.attempted, "attempted"))
    for problem in ops.problems:
        print(f"FAILED CHECK: {problem}")
    if not metrics:
        print("no operation succeeded; no result", file=sys.stderr)
        return 2
    if not args.trace:
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # Before numpy is first imported, so this process is pinned like its children.
    os.environ.update(common.BLAS_ENV)
    if not common.source_present():
        print(f"frsense sources not found under {common.SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
