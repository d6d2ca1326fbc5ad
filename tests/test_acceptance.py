"""End-to-end checks of the numeric contracts this package promises.

One test per contract; run with -v to get a one-line verdict for each.
The two trend sweeps are module-scoped fixtures because several checks
share them, and each takes minutes rather than milliseconds.
"""

import contextlib
import io
import time

import numpy as np
import pytest
from scipy.stats import spearmanr
from _oracles import crp_expected_clusters, exp_map, tangent_project, triple
from conftest import random_mixture_pdf, random_srd

from frsense import (
    Dataset,
    DpConfig,
    DpgmmConfig,
    Grid,
    GridPdf,
    McmcControl,
    Srd,
    SweepSpec,
    e_upper_bound,
    fr_distance,
    geodesic_path,
    inv_exp_map,
    karcher_mean,
    karcher_variance,
    run_sweep,
    sample_crp_partition,
    summarize_sample,
    sweep_grid_presets,
    tangent_pca,
    to_srd,
    triple_from_summaries,
)
from frsense.cli import main

TREND_BUDGET_SECONDS = 600.0


@pytest.fixture(scope="module")
def dp_trend():
    """Concentration sweep of the stick-breaking model on flat data.

    Large truncation keeps the absorbed stick remainder negligible and the
    explicit kernel bandwidth keeps draw variability high-dimensional; both
    settings hold discretization noise below the trends being measured.
    """
    data = Dataset.from_observations(np.random.default_rng(2024).uniform(size=100))
    spec = SweepSpec(
        model="dp",
        baseline=DpConfig(alpha=5.0, truncation=1000, bandwidth=0.03),
        parameter="alpha",
        values=sweep_grid_presets("dp")[0].values,
        replicates=5,
        mcmc=McmcControl(n_samples=200, burn_in=0, thin=1, seed=424242),
    )
    start = time.perf_counter()
    result = run_sweep(data, spec, aggregate="mean", n_workers=2)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def dpgmm_trend():
    """Concentration sweep of the conjugate mixture model on 3-mode data."""
    rng = np.random.default_rng(61)
    observations = np.concatenate([
        rng.normal(-3.0, 0.5, 50),
        rng.normal(0.0, 0.7, 55),
        rng.normal(3.0, 0.5, 45),
    ])
    template = [t for t in sweep_grid_presets("dpgmm") if t.parameter == "alpha"][0]
    spec = SweepSpec(
        model="dpgmm",
        baseline=DpgmmConfig(),
        parameter="alpha",
        values=template.values,
        replicates=5,
        band_values=(template.baseline_value,),
        mcmc=McmcControl(n_samples=200, burn_in=300, thin=2, seed=31415),
    )
    start = time.perf_counter()
    result = run_sweep(
        Dataset.from_observations(observations), spec, aggregate="mean", n_workers=2
    )
    return result, time.perf_counter() - start


def test_1_geometry_identity_suite():
    grid = Grid(512)
    rng = np.random.default_rng(424242)
    cap = 0.5 * np.pi - 0.01
    start = time.perf_counter()
    for _ in range(200):
        p1 = random_srd(grid, rng)
        p2 = random_srd(grid, rng)
        p3 = random_srd(grid, rng)
        d12 = fr_distance(p1, p2)
        assert d12 < cap

        v = inv_exp_map(p1, p2)
        back = exp_map(p1, v.values)
        assert np.max(np.abs(back.values - p2.values)) < 1e-8
        assert abs(grid.norm(v.values) - d12) < 1e-8
        assert abs(fr_distance(p2, p1) - d12) < 1e-12
        assert fr_distance(p1, p3) <= d12 + fr_distance(p2, p3) + 1e-9
    assert time.perf_counter() - start < 5.0


def test_2_distance_matches_dense_quadrature():
    grid = Grid(512)
    uniform = GridPdf(grid, np.ones(grid.n_points))
    tilted = GridPdf(grid, 2.0 * grid.x)
    observed = fr_distance(uniform, tilted)

    x = np.linspace(0.0, 1.0, 100001)
    dense = float(np.arccos(np.trapezoid(np.sqrt(2.0 * x), x)))
    assert abs(dense - np.arccos(2.0 * np.sqrt(2.0) / 3.0)) < 1e-6
    assert abs(observed - dense) < 1e-4


def test_3_karcher_mean_properties():
    grid = Grid(512)
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_mixture_pdf(grid, rng)
        b = random_mixture_pdf(grid, rng)
        mean = karcher_mean([to_srd(a), to_srd(b)])
        midpoint = to_srd(geodesic_path(a, b, 3)[1])
        assert fr_distance(mean, midpoint) < 1e-6

    for _ in range(50):
        srds = [random_srd(grid, rng) for _ in range(20)]
        mean, info = karcher_mean(srds, full_output=True)
        assert info.converged
        assert info.grad_norm < 1e-6
        v_at_mean = karcher_variance(srds, mean)
        for s in srds:
            assert v_at_mean <= karcher_variance(srds, s) + 1e-9


def test_4_tangent_pca_spectrum():
    grid = Grid(512)
    rng = np.random.default_rng(99)
    srds = [random_srd(grid, rng) for _ in range(25)]
    pca = tangent_pca(srds)

    tangents = [inv_exp_map(pca.mean, s).values for s in srds]
    trace = sum(grid.inner(t, t) for t in tangents) / (len(srds) - 1)
    assert abs(float(pca.eigenvalues.sum()) - trace) < 1e-8

    for t in tangents:
        coeffs = pca.eigenvectors.T @ (t * grid.weights)
        reconstructed = pca.eigenvectors @ coeffs
        assert np.max(np.abs(reconstructed - t)) < 1e-6

    base = Srd(grid, np.ones(grid.n_points))
    direction = tangent_project(base, np.sin(2.0 * np.pi * grid.x)).values.copy()
    direction /= grid.norm(direction)
    draws = [
        exp_map(base, c * direction)
        for c in np.linspace(-0.3, 0.3, 9)
    ]
    rank_one = tangent_pca(draws)
    assert int(np.sum(rank_one.eigenvalues > 1e-10)) == 1


def test_5_measure_bounds_and_antisymmetry(dp_trend, dpgmm_trend):
    bound = e_upper_bound(20)
    assert abs(bound - np.sqrt(2470.0) / 20.0) < 1e-12
    assert abs(bound - 2.4875) < 3e-3

    for result, _ in (dp_trend, dpgmm_trend):
        triples = list(result.triples)
        for row in result.replicate_triples:
            triples.extend(row)
        for t in triples:
            assert 0.0 <= t.d_shift <= 0.5 * np.pi
            assert 0.0 <= t.e_covshape <= e_upper_bound(t.d_components)
            assert np.isfinite(t.v_spread)

    grid = Grid(128)
    rng = np.random.default_rng(7)
    sample_a = [random_srd(grid, rng) for _ in range(12)]
    sample_b = [random_srd(grid, rng) for _ in range(12)]
    forward = triple_from_summaries(
        summarize_sample(sample_a, 4), summarize_sample(sample_b, 4)
    )
    reverse = triple_from_summaries(
        summarize_sample(sample_b, 4), summarize_sample(sample_a, 4)
    )
    assert forward.v_spread == -reverse.v_spread
    assert forward.d_shift == reverse.d_shift

    degenerate = triple(sample_a, sample_a, d=4)
    assert degenerate.astuple() == (0.0, 0.0, 0.0)


def test_6_crp_cluster_count_oracle():
    expected = crp_expected_clusters(1.0, 10)
    assert abs(expected - 2.9289682539682538) < 1e-12

    rng = np.random.default_rng(2718)
    counts = np.empty(10000)
    for k in range(counts.size):
        counts[k] = np.unique(sample_crp_partition(1.0, 10, rng)).size
    standard_error = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - expected) < 3.0 * standard_error


def test_7a_dp_shift_scale_stays_small(dp_trend):
    result, elapsed = dp_trend
    assert elapsed < TREND_BUDGET_SECONDS
    assert max(t.d_shift for t in result.triples) < 0.05


def test_7b_dp_spread_decreases_with_concentration(dp_trend):
    result, _ = dp_trend
    v_curve = [t.v_spread for t in result.triples]
    rho = spearmanr(result.spec.values, v_curve).statistic
    assert rho < -0.8


def test_7c_dpgmm_shift_minimized_at_baseline(dpgmm_trend):
    result, elapsed = dpgmm_trend
    assert elapsed < TREND_BUDGET_SECONDS
    spec = result.spec
    d_curve = [t.d_shift for t in result.triples]
    at_base = d_curve[spec.baseline_index]
    lo, hi = result.band_at(spec.baseline_value).d_shift
    assert lo <= at_base <= hi
    assert at_base < d_curve[0]
    assert at_base < d_curve[-1]


def test_8_cli_sweep_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(44)
    with open("obs.txt", "w") as fh:
        for v in rng.normal(size=30):
            fh.write(f"{float(v)!r}\n")
    with open("exp.ini", "w") as fh:
        fh.write(
            "[dataset]\npath = obs.txt\n\n"
            "[model]\nkind = dp\n\n"
            "[model.baseline]\nalpha = 3.0\ntruncation = 60\n\n"
            "[sweep]\nparameter = alpha\nvalues = 1.0, 3.0, 8.0\n"
            "replicates = 2\nd_components = 4\n\n"
            "[mcmc]\nn_samples = 16\nburn_in = 0\nthin = 1\nseed = 5\n\n"
            "[geometry]\nn_points = 64\n"
        )
    for out_dir in ("r1", "r2"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["sweep", "--config", "exp.ini", "--out", out_dir])
        assert rc == 0
    first = open("r1/sweep.csv", "rb").read()
    second = open("r2/sweep.csv", "rb").read()
    assert first == second
