"""Traced in-process run of one workload: spans and per-layer metrics.

Usage: trace_run.py --workload NAME --seed N --seconds S --dir WORK --spawned T

``run.py --trace 1`` starts this in a fresh child process.  It calls only
the package's public API and wraps each call into a module in a span
(name, start, end, parent, run id).  Spans stay in memory and are written
to ``.bench_work/trace-<workload>-<seed>.spans.json`` when the run ends.

Traced passes alternate with untraced passes of the same work until
``--seconds`` have passed (at least two of each); the difference of their
median wall times is the tracing overhead.  The geometry split (SRD
transform, Karcher mean, tangent PCA, variance) is re-timed from outside on
the samples of the last traced pass, because the summary runs them inside
one public call.

The last stdout line is a JSON object: per-layer metrics, report lines,
operation counts and any failed check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import common

PER_LAYER = {
    "samplers.dpgmm.run_s": "s",
    "samplers.dpgmm.us_per_obs_step": "us",
    "samplers.dpgmm.obs_steps": "count",
    "samplers.dpgmm.mean_clusters": "clusters",
    "samplers.griffin.run_s": "s",
    "samplers.griffin.us_per_obs_step": "us",
    "samplers.griffin.obs_steps": "count",
    "samplers.griffin.mean_clusters": "clusters",
    "samplers.griffin.alpha_acceptance": "fraction",
    "samplers.dp.run_s": "s",
    "samplers.dp.ms_per_draw": "ms",
    "samplers.dp.draws": "count",
    "samplers.dp.emitted_rows": "count",
    "grid.normalize_ms": "ms",
    "grid.to_srd_ms": "ms",
    "geometry.karcher_ms": "ms",
    "geometry.karcher_iters": "count",
    "geometry.tpca_self_ms": "ms",
    "geometry.variance_ms": "ms",
    "geometry.cov_eigh_flops": "flop_computed",
    "geometry.karcher_bytes_per_iter": "B_computed",
    "geometry.tall.karcher_ms": "ms",
    "geometry.tall.karcher_iters": "count",
    "geometry.tall.tpca_self_ms": "ms",
    "geometry.tall.variance_ms": "ms",
    "geometry.tall.cov_eigh_flops": "flop_computed",
    "geometry.tall.karcher_bytes_per_iter": "B_computed",
    "measures.summarize_ms": "ms",
    "measures.summarize_tail_ms": "ms",
    "measures.summarize_tail_pct": "%",
    "measures.summarize_count": "count",
    "measures.first_summary_s": "s",
    "measures.share": "fraction",
    "sweep.overhead_s": "s",
    "sweep.speedup_t2": "x",
    "sweep.parallel_eff": "fraction",
    "sweep.cpu_util": "fraction",
    "io.read_ms": "ms",
    "io.read_mb_per_s": "MB/s",
    "io.read_bytes": "B",
    "io.write_densities_ms": "ms",
    "io.write_bytes": "B",
    "io.load_dataset_ms": "ms",
    "config.load_ms": "ms",
    "cli.import_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

SAMPLER_LAYER = {"dp": "samplers.dp", "dpgmm": "samplers.dpgmm", "dcv": "samplers.griffin"}

#: Repeats of the cheap one-shot calls (config load, dataset load, write).
REPEATS = 5

#: Extra summaries of the wide sample on ``summaries``, so the tail
#: percentile has at least ten samples beyond it.
SUMMARY_REPEATS = 30


class Report:
    """Per-layer values, each with a note on how it was formed."""

    def __init__(self):
        self.values = dict.fromkeys(PER_LAYER, 0.0)
        self.notes: dict = {}

    def put(self, name: str, value: float, note: str) -> None:
        if name not in PER_LAYER:
            raise KeyError(name)
        self.values[name] = float(value)
        self.notes[name] = note

    def put_ratio(self, name, num, num_label, den, den_label, scale=1.0) -> None:
        self.put(name, scale * common.ratio(num, den),
                 common.ratio_note(num, num_label, den, den_label, scale))

    def put_ms(self, name: str, seconds: list, what: str) -> None:
        self.put(name, 1e3 * common.median(seconds), f"median of {len(seconds)} {what}")

    def lines(self) -> list:
        out = []
        for name, unit in PER_LAYER.items():
            if name in self.notes:
                out.append(f"{name} = {self.values[name]:.6g} {unit}  ({self.notes[name]})")
            else:
                out.append(f"{name} = 0 {unit}  (not run by this workload)")
        return out

    def metrics(self) -> dict:
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in self.values.items()}


def same_summary(a, b) -> bool:
    return (
        a.variance == b.variance
        and a.mean.values.tobytes() == b.mean.values.tobytes()
        and a.spectrum.omega.tobytes() == b.spectrum.omega.tobytes()
    )


def alternate(one_pass, tracer, seconds: float) -> tuple:
    """Traced and untraced passes in turn until `seconds`, two of each at least."""
    traced, plain, start = [], [], time.monotonic()
    while len(plain) < 2 or time.monotonic() - start < seconds:
        use_tracer = len(traced) == len(plain)
        t0 = time.perf_counter()
        result = one_pass(f"pass{len(traced) + len(plain)}", tracer if use_tracer else common.NullTracer())
        wall = time.perf_counter() - t0
        (traced if use_tracer else plain).append((wall, result))
    return traced, plain


def geometry_split(frsense, tracer, rows_by_label, karcher, report, prefix):
    """Re-time the summary's steps from outside, one sample at a time."""
    times = {k: [] for k in ("normalize", "to_srd", "karcher", "tpca_self", "variance")}
    iters = 0
    for label, (grid, rows) in rows_by_label.items():
        run = f"split/{label}"
        with tracer.span("grid.normalize", run) as s:
            pdfs = [frsense.normalize_pdf(grid, row) for row in rows]
        times["normalize"].append(s.duration)
        with tracer.span("grid.to_srd", run) as s:
            srds = [frsense.to_srd(p) for p in pdfs]
        times["to_srd"].append(s.duration)
        with tracer.span("geometry.karcher", run) as s:
            mean, info = frsense.karcher_mean(srds, **karcher, full_output=True)
        times["karcher"].append(s.duration)
        iters += info.n_iter
        with tracer.span("geometry.tangent_pca", run) as s:
            frsense.tangent_pca(srds, **karcher)
        times["tpca_self"].append(s.duration - times["karcher"][-1])
        with tracer.span("geometry.variance", run) as s:
            frsense.karcher_variance(srds, mean)
        times["variance"].append(s.duration)
    n, p = rows.shape
    samples = f"samples of {n} draws"
    if prefix == "geometry.":
        report.put_ms("grid.normalize_ms", times["normalize"], f"{samples}, normalize_pdf per row")
        report.put_ms("grid.to_srd_ms", times["to_srd"], f"{samples}, to_srd per draw")
    report.put_ms(prefix + "karcher_ms", times["karcher"], samples)
    report.put(prefix + "karcher_iters", iters, f"Karcher updates summed over {len(rows_by_label)} {samples}")
    report.put_ms(prefix + "tpca_self_ms", times["tpca_self"], f"{samples}, tangent_pca minus its Karcher mean")
    report.put_ms(prefix + "variance_ms", times["variance"], samples)
    report.put(prefix + "cov_eigh_flops", 2 * n * p * p + 9 * p**3,
               f"computed: 2 n p^2 for the covariance + 9 p^3 for eigh with vectors, n={n}, p={p}")
    report.put(prefix + "karcher_bytes_per_iter", 3 * 8 * n * p,
               f"computed lower bound: n x p float64 samples read, tangents written and read, n={n}, p={p}")


def summarize_stats(report, durations, first, what) -> None:
    report.put_ms("measures.summarize_ms", durations, what)
    tail = common.tail_percentile(durations)
    if tail is not None:
        pct, value = tail
        report.put("measures.summarize_tail_ms", 1e3 * value,
                   f"p{pct:.4g}: the highest percentile with ten samples beyond it")
        report.put("measures.summarize_tail_pct", pct, f"of {len(durations)} samples")
    report.put("measures.summarize_count", len(durations), what)
    report.put("measures.first_summary_s", first - common.median(durations),
               "first summarize_sample in a fresh process minus the median")


def trace_overhead(report, tracer, traced, plain, root: str, glue: tuple) -> None:
    own = common.self_times(tracer.spans)
    uncovered = []
    for i in range(len(traced)):
        run = f"pass{2 * i}"
        uncovered.append(sum(
            own[s.sid] for s in tracer.spans
            if s.name in glue and (s.run == run or s.run.startswith(run + "/"))
        ))
    walls_t = [w for w, _ in traced]
    walls_p = [w for w, _ in plain]
    report.put("trace.uncovered_s", common.median(uncovered),
               f"median per traced pass of the time inside {root} covered by no module span; "
               f"pass wall {common.median(walls_t):.6g} s")
    report.put("trace.overhead_s", common.median(walls_t) - common.median(walls_p),
               f"median traced pass {common.median(walls_t):.6g} s ({len(walls_t)}) minus "
               f"median untraced pass {common.median(walls_p):.6g} s ({len(walls_p)})")


def trace_sweep(args, frsense, report, tracer, rec, lines) -> None:
    import inputs

    w = inputs.SWEEPS[args.workload]
    ini = inputs.write_sweep_inputs(args.workload, args.seed, args.dir)
    lines.append(f"input: seed {args.seed}, {w.tasks} sampler runs of {w.n_samples} draws per pass")
    load, dataset = [], []
    for _ in range(REPEATS):
        with tracer.span("config.load", "setup") as s:
            config = frsense.load_config(ini)
        load.append(s.duration)
        with tracer.span("io.load_dataset", "setup") as s:
            data = frsense.load_dataset(config.dataset_path, config.transform)
        dataset.append(s.duration)
    report.put_ms("config.load_ms", load, "load_config calls")
    report.put_ms("io.load_dataset_ms", dataset, "load_dataset calls")

    spec, geo = config.spec, config.geometry
    grid = frsense.Grid(geo.n_points)
    karcher = dict(eps1=geo.karcher_eps1, eps2=geo.karcher_step, max_iter=geo.karcher_max_iter)
    sweep_kwargs = dict(
        aggregate=config.aggregate, grid=grid, karcher_eps1=geo.karcher_eps1,
        karcher_step=geo.karcher_step, karcher_max_iter=geo.karcher_max_iter,
    )
    sampler = frsense.model_sampler(spec.model)
    layer = SAMPLER_LAYER[spec.model]
    jobs = [(r, idx) for r in range(1, spec.replicates + 1) for idx in (None, *range(len(spec.values)))]

    def controls(job):
        r, idx = job
        if idx is None:
            seed = frsense.derived_seed(spec.mcmc.seed, r)
            return spec.baseline, dataclasses.replace(spec.mcmc, seed=seed)
        seed = frsense.derived_seed(spec.mcmc.seed, r, idx)
        return spec.config_for(spec.values[idx]), dataclasses.replace(spec.mcmc, seed=seed)

    samples = {}  # of the latest pass only

    def one_pass(run, tr):
        summaries = {}
        with tr.span("sweep.rebuild", run):
            for job in jobs:
                task = f"{run}/r{job[0]}-{'base' if job[1] is None else job[1]}"
                with tr.span("task", task):
                    cfg, ctl = controls(job)
                    with tr.span(layer + ".run", task):
                        samples[job] = sampler(data, cfg, ctl, grid=grid)
                    with tr.span("measures.summarize", task):
                        summaries[job] = frsense.summarize_sample(samples[job], spec.d_components, **karcher)
        return summaries, sum(s.n_draws for s in samples.values())

    traced, plain = alternate(one_pass, tracer, args.seconds)
    first = traced[0][1][0]
    for _, (summaries, emitted) in traced + plain:
        rec.record([] if all(same_summary(summaries[j], first[j]) for j in jobs)
                   else ["a pass gave different summaries than the first"])
        rec.record([] if emitted == w.tasks * w.n_samples
                   else [f"{emitted} rows emitted, expected {w.tasks * w.n_samples}"])

    # Sampler layer.  Sweeps per run follow the samplers' loop, which stops
    # at the last retained draw.
    run_times = tracer.durations(layer + ".run")
    n_traced = len(traced)
    report.put(layer + ".run_s", common.median(run_times), f"median of {len(run_times)} sampler runs")
    if spec.model == "dp":
        draws = w.tasks * w.sweeps_run
        report.put("samplers.dp.draws", draws, f"stick-breaking draws per pass: {w.tasks} runs x {w.sweeps_run}")
        report.put("samplers.dp.emitted_rows", w.tasks * w.n_samples, f"density rows per pass: {w.tasks} runs x {w.n_samples}")
        report.put_ratio("samplers.dp.ms_per_draw", sum(run_times), "sampler seconds", n_traced * draws, "draws", 1e3)
    else:
        steps = w.tasks * w.sweeps_run * data.n
        report.put(layer + ".obs_steps", steps,
                   f"per pass: {w.tasks} runs x {w.sweeps_run} sweeps x {data.n} observations")
        report.put_ratio(layer + ".us_per_obs_step", sum(run_times), "sampler seconds", n_traced * steps, "obs-steps", 1e6)
        clusters = [float(s.trace["n_clusters"].mean()) for s in samples.values()]
        report.put(layer + ".mean_clusters", sum(clusters) / len(clusters),
                   f"mean occupied clusters over the retained draws of {len(clusters)} runs")
        if spec.model == "dcv":
            acc = [s.diagnostics["alpha_acceptance"] for s in samples.values()]
            report.put("samplers.griffin.alpha_acceptance", sum(acc) / len(acc),
                       f"mean alpha random-walk acceptance of {len(acc)} runs")

    summarize = tracer.durations("measures.summarize")
    summarize_stats(report, summarize, summarize[0], f"summarize_sample calls of {w.n_samples} draws")
    tasks = tracer.durations("task")
    report.put_ratio("measures.share", sum(summarize), "summarize seconds", sum(tasks), "task seconds")
    geometry_split(frsense, tracer, {j: (grid, s.densities) for j, s in samples.items()},
                   karcher, report, "geometry.")

    # Orchestration: run_sweep at one worker against the summed task spans.
    task_sums = [sum(s.duration for s in tracer.spans if s.name == "task" and s.run.startswith(f"pass{2 * i}/"))
                 for i in range(n_traced)]
    timed = {}
    for n_workers in sorted({1, w.threads}):
        with tracer.span("sweep.run_sweep", f"t{n_workers}") as s:
            cpu = time.process_time()
            timed[n_workers] = (frsense.run_sweep(data, spec, n_workers=n_workers, **sweep_kwargs),
                                time.process_time() - cpu)
        timed[n_workers] += (s.duration,)
    result1, cpu1, wall1 = timed[1]
    report.put("sweep.overhead_s", wall1 - common.median(task_sums),
               f"run_sweep at 1 worker {wall1:.6g} s minus median summed task spans "
               f"{common.median(task_sums):.6g} s")
    if w.threads > 1:
        result_t, cpu_t, wall_t = timed[w.threads]
        report.put_ratio("sweep.speedup_t2", wall1, "run_sweep wall at 1 worker", wall_t,
                         f"at {w.threads} workers")
        report.put_ratio("sweep.parallel_eff", wall1, "run_sweep wall at 1 worker", wall_t * w.threads,
                         f"{w.threads} x wall at {w.threads} workers")
        report.put_ratio("sweep.cpu_util", cpu_t, "process CPU seconds", wall_t * w.threads,
                         f"{w.threads} workers x run_sweep wall")
    else:
        result_t = result1
        report.put_ratio("sweep.cpu_util", cpu1, "process CPU seconds", wall1, "run_sweep wall at 1 worker")

    expected_sweep, expected_bands = expected_csv(frsense, spec, first)
    for label, result in (("run_sweep at 1 worker", result1), (f"run_sweep at {w.threads} workers", result_t)):
        got_sweep, got_bands = result_csv(frsense, result)
        rec.record([] if (got_sweep, got_bands) == (expected_sweep, expected_bands)
                   else [f"{label} differs from the task-by-task rebuild"])

    if w.threads > 1 or w.densities:
        cross_check(args, frsense, w, spec, data, grid, sampler, ini, expected_sweep,
                    expected_bands, report, tracer, rec, lines)
    trace_overhead(report, tracer, traced, plain, "sweep.rebuild", ("sweep.rebuild", "task"))


def _fmt(value: float) -> str:
    return "%.12g" % value


def expected_csv(frsense, spec, summaries) -> tuple:
    """sweep.csv and bands.csv text rebuilt from per-task summaries."""
    rows = {
        r: [frsense.triple_from_summaries(summaries[(r, None)], summaries[(r, i)]) for i in range(len(spec.values))]
        for r in range(1, spec.replicates + 1)
    }
    sweep = ["param_value,D,V,E"] + [
        ",".join(_fmt(v) for v in (value, *t.astuple())) for value, t in zip(spec.values, rows[1])
    ]
    bands = ["param_value,measure,lo,hi"]
    for value in spec.band_values:
        idx = spec.values.index(value)
        column = [rows[r][idx].astuple() for r in rows]
        for k, label in enumerate("DVE"):
            lo, hi = frsense.replicate_band([t[k] for t in column])
            bands.append(f"{_fmt(value)},{label},{_fmt(lo)},{_fmt(hi)}")
    return "\n".join(sweep) + "\n", "\n".join(bands) + "\n"


def result_csv(frsense, result) -> tuple:
    sweep = ["param_value,D,V,E"] + [
        ",".join(_fmt(v) for v in (value, *t.astuple())) for value, t in zip(result.spec.values, result.triples)
    ]
    bands = ["param_value,measure,lo,hi"]
    for value in result.spec.band_values:
        band = result.band_at(value)
        for label, (lo, hi) in zip("DVE", (band.d_shift, band.v_spread, band.e_covshape)):
            bands.append(f"{_fmt(value)},{label},{_fmt(lo)},{_fmt(hi)}")
    return "\n".join(sweep) + "\n", "\n".join(bands) + "\n"


def cross_check(args, frsense, w, spec, data, grid, sampler, ini, expected_sweep,
                expected_bands, report, tracer, rec, lines) -> None:
    """The CLI at the workload's worker count against the 1-worker rebuild."""
    out = os.path.join(args.dir, "cli-out")
    child = common.run_child([*common.CLI, "sweep", "--config", ini, "--out", out,
                              "--threads", str(w.threads)])
    if child.code != 0:
        rec.record([f"frsense sweep --threads {w.threads} exited {child.code}"])
        return
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        cli_sweep = fh.read()
    with open(os.path.join(out, "bands.csv"), encoding="utf-8") as fh:
        cli_bands = fh.read()
    same = cli_sweep == expected_sweep and cli_bands == expected_bands
    rec.record([] if same else [f"--threads {w.threads} CLI D/V/E differ from the 1-worker rebuild"])
    lines.append(f"worker-count cross-check: `frsense sweep --threads {w.threads}` sweep.csv and "
                 f"bands.csv {'equal' if same else 'DIFFER FROM'} the 1-worker in-process rebuild")
    if not w.densities:
        return
    ctl = dataclasses.replace(spec.mcmc, seed=frsense.derived_seed(spec.mcmc.seed, 1))
    sample = sampler(data, spec.baseline, ctl, grid=grid)
    path = os.path.join(args.dir, "densities.csv")
    writes = []
    for _ in range(REPEATS):
        with tracer.span("io.write_densities", "write") as s:
            frsense.write_density_matrix(path, sample.pdfs)
        writes.append(s.duration)
    report.put_ms("io.write_densities_ms", writes, f"write_density_matrix calls of {sample.n_draws} rows")
    size = os.path.getsize(path)
    report.put("io.write_bytes", size, "bytes of one density matrix")
    with open(path, "rb") as a, open(os.path.join(out, "densities.csv"), "rb") as b:
        rec.record([] if a.read() == b.read() else ["densities.csv differs from the rebuilt baseline sample"])


def trace_summaries(args, frsense, report, tracer, rec, lines) -> None:
    import numpy as np

    import inputs

    paths = inputs.write_summary_inputs(args.seed, args.dir)
    d = inputs.D_COMPONENTS
    lines.append(f"input: seed {args.seed}, " + ", ".join(f"{s} {n} draws" for s, n in inputs.SHAPES.items()))

    rows = {}  # of the latest pass only

    def one_pass(run, tr):
        summaries = {}
        with tr.span("summaries.pass", run):
            for shape, path in paths.items():
                with tr.span("io.read", f"{run}/{shape}"):
                    rows[shape] = frsense.read_density_matrix(path)
                with tr.span("measures.summarize", f"{run}/{shape}"):
                    summaries[shape] = frsense.summarize_sample(rows[shape], d)
            with tr.span("measures.triple", run):
                frsense.triple_from_summaries(*summaries.values())
        return summaries

    traced, plain = alternate(one_pass, tracer, args.seconds)
    first = traced[0][1]
    for _, summaries in traced + plain:
        rec.record([] if all(same_summary(summaries[k], first[k]) for k in paths)
                   else ["a pass gave different summaries than the first"])

    read_bytes = sum(os.path.getsize(p) for p in paths.values())
    reads = [sum(s.duration for s in tracer.spans if s.name == "io.read" and s.run.startswith(f"pass{2 * i}/"))
             for i in range(len(traced))]
    read_s = common.median(reads)
    report.put("io.read_ms", 1e3 * read_s, f"median over {len(reads)} passes of read_density_matrix on both files")
    report.put("io.read_bytes", read_bytes, "bytes of both density matrices")
    report.put_ratio("io.read_mb_per_s", read_bytes / 1e6, "MB", read_s, "read seconds")

    first_wide = [s.duration for s in tracer.spans if s.name == "measures.summarize" and s.run.endswith("/wide")]
    wide_rows = rows["wide"]
    for i in range(SUMMARY_REPEATS):
        with tracer.span("measures.summarize", f"repeat{i}/wide") as s:
            frsense.summarize_sample(wide_rows, d)
        first_wide.append(s.duration)
    summarize_stats(report, first_wide, first_wide[0],
                    f"summarize_sample calls on the wide sample ({len(wide_rows)} draws)")
    shares = []
    for i, (wall, _) in enumerate(traced):
        spent = sum(s.duration for s in tracer.spans
                    if s.name == "measures.summarize" and s.run.startswith(f"pass{2 * i}/"))
        shares.append(spent / wall)
    report.put("measures.share", common.median(shares),
               f"median over {len(shares)} traced passes of summarize seconds / pass seconds")

    for shape, prefix in (("wide", "geometry."), ("tall", "geometry.tall.")):
        grid = rows[shape][0].grid
        matrix = np.stack([p.values for p in rows[shape]])
        geometry_split(frsense, tracer, {shape: (grid, matrix)}, dict(eps1=1e-6, eps2=0.5, max_iter=200),
                       report, prefix)
    trace_overhead(report, tracer, traced, plain, "summaries.pass", ("summaries.pass",))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned", required=True, type=float)
    args = parser.parse_args()

    import frsense.cli  # noqa: F401  (what every CLI invocation pays)

    import_s = time.monotonic() - args.spawned
    import frsense

    report, tracer, rec, lines = Report(), common.Tracer(), common.Operations(), []
    report.put("cli.import_s", import_s, "spawn to end of `import frsense.cli` in a fresh process")
    if args.workload == "summaries":
        trace_summaries(args, frsense, report, tracer, rec, lines)
    else:
        trace_sweep(args, frsense, report, tracer, rec, lines)
    report.put("trace.spans", len(tracer.spans), "spans recorded in memory")
    spans_path = os.path.join(common.WORK, f"trace-{args.workload}-{args.seed}.spans.json")
    tracer.write(spans_path)
    lines.append(f"spans written to {os.path.relpath(spans_path, common.ROOT)}")
    print(json.dumps({
        "metrics": report.metrics(),
        "lines": lines + report.lines(),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
