"""Tests of the benchmark's own arithmetic and bookkeeping.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

import checks
import common
import inputs
import run
import trace_run

sys.path.insert(0, common.SRC)


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(100, 0, -1))
    pct, value = common.tail_percentile(values)
    assert pct == 90.0
    assert value == 90
    assert sum(v > value for v in values) == 10


def test_tail_percentile_needs_the_median_or_above():
    assert common.tail_percentile(range(19)) is None
    pct, value = common.tail_percentile(range(20))
    assert (pct, value) == (50.0, 9)


def test_self_time_is_span_minus_children():
    spans = [
        common.Span("pass", 0.0, 10.0, None, "p", 0),
        common.Span("task", 1.0, 6.0, 0, "p/t0", 1),
        common.Span("sampler", 1.5, 4.0, 1, "p/t0", 2),
        common.Span("summary", 4.0, 5.5, 1, "p/t0", 3),
        common.Span("task", 6.0, 9.0, 0, "p/t1", 4),
    ]
    own = common.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 3.0)
    assert own[1] == pytest.approx(5.0 - 2.5 - 1.5)
    assert own[2] == pytest.approx(2.5)
    assert own[4] == pytest.approx(3.0)


def test_tracer_records_parents_and_run_ids():
    tracer = common.Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("inner", "r1/a"):
            pass
    outer, inner = tracer.spans
    assert outer.parent is None and inner.parent == outer.sid
    assert inner.run == "r1/a"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_every_ratio_is_printed_with_its_base():
    line = common.ratio_text("tasks_per_s", 2.5, "1/s", 10, "sampler runs", 4.0, "wall_s")
    assert "sampler runs 10" in line and "wall_s 4" in line
    report = trace_run.Report()
    report.put_ratio("samplers.dp.ms_per_draw", 1.5, "sampler seconds", 3000, "draws", 1e3)
    assert report.values["samplers.dp.ms_per_draw"] == pytest.approx(0.5)
    text = [ln for ln in report.lines() if ln.startswith("samplers.dp.ms_per_draw")][0]
    assert "sampler seconds 1.5" in text and "draws 3000" in text and "1000 x" in text


def test_benchmark_json_matches_the_code():
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace_run.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_inputs_are_a_function_of_the_seed(tmp_path):
    a = inputs.write_sweep_inputs("sweep-dp", 7, str(tmp_path / "a"))
    b = inputs.write_sweep_inputs("sweep-dp", 7, str(tmp_path / "b"))
    for name in ("experiment.ini", "observations.txt"):
        left = open(os.path.join(os.path.dirname(a), name), "rb").read()
        right = open(os.path.join(os.path.dirname(b), name), "rb").read()
        assert left == right
    assert not np.array_equal(inputs.observations(7), inputs.observations(8))
    assert np.array_equal(inputs.density_draws(3, 50, 1), inputs.density_draws(3, 50, 1))


def test_e_upper_bound_matches_rank_one_against_flat():
    d = 20
    rank_one = np.ones(d)
    flat = np.arange(1, d + 1) / d
    assert checks.e_upper_bound(d) == pytest.approx(float(np.linalg.norm(rank_one - flat)))


def test_sweep_csv_check_catches_out_of_range_measures(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("param_value,D,V,E\n1,0.1,0.2,0.3\n2,1.7,0.1,0.1\n")
    problems = checks.check_sweep_csv(str(path), (1.0, 2.0), 20)
    assert len(problems) == 1 and "D=1.7" in problems[0]
    path.write_text("param_value,D,V,E\n1,0.1,nan,0.3\n")
    assert checks.check_sweep_csv(str(path), (1.0,), 20)


def test_summary_reference_accepts_the_package_and_rejects_a_shifted_mean():
    from frsense import Grid, GridPdf, summarize_sample

    rows = inputs.density_draws(5, 60, 1)
    grid = Grid(inputs.N_POINTS)
    summary = summarize_sample([GridPdf(grid, r) for r in rows], 20)
    kwargs = dict(eps1=1e-6, eps2=0.5, max_iter=200, label="test")
    problems, info = checks.check_summary(
        rows, summary.mean.values, summary.variance, summary.spectrum.omega, **kwargs
    )
    assert problems == []
    assert info["fixed_point_gap"] <= 2e-6
    shifted = summary.mean.values * (1.0 + 1e-3 * np.sin(np.arange(rows.shape[1])))
    shifted /= math.sqrt(shifted**2 @ checks.trapezoid_weights(rows.shape[1]))
    problems, _ = checks.check_summary(rows, shifted, summary.variance, summary.spectrum.omega, **kwargs)
    assert problems
