"""Perturbation sweeps: one parameter varied over a grid, rest fixed.

A sweep runs the chosen sampler once per replicate with the baseline
config, once per (grid value, replicate) with a single scalar field
replaced, and reduces every run to a SampleSummary.  Comparing the
baseline summary of a replicate against each perturbed summary of the
same replicate yields one MeasureTriple per grid value; quantile bands
over replicates quantify the Monte Carlo noise of the measures at
selected grid values.

Seeds are derived from the base seed so that replicate r depends only on
(base seed, r).  Adding replicates or grid values never changes results
already computed for earlier replicates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnknownModelError, UnknownParameterError
from .measures import (
    DEFAULT_N_COMPONENTS,
    MeasureTriple,
    SampleSummary,
    replicate_band,
    summarize_sample,
    triple_from_summaries,
)
from .samplers import (
    CcvConfig,
    Dataset,
    DcvConfig,
    DpConfig,
    DpgmmConfig,
    McmcControl,
    PosteriorSample,
    ccv_posterior,
    dcv_posterior,
    derived_seed,
    dp_posterior,
    dpgmm_posterior,
)

__all__ = [
    "BandTriple",
    "GRID_POINTS",
    "MODEL_TAGS",
    "SweepResult",
    "SweepSpec",
    "get_config_value",
    "model_sampler",
    "run_sweep",
    "set_config_value",
    "sweep_grid_presets",
]

#: Number of grid values in every preset ladder.
GRID_POINTS = 15

_MODELS = {
    "dp": (DpConfig, dp_posterior),
    "dpgmm": (DpgmmConfig, dpgmm_posterior),
    "ccv": (CcvConfig, ccv_posterior),
    "dcv": (DcvConfig, dcv_posterior),
}

MODEL_TAGS = tuple(sorted(_MODELS))

#: How a sweep's per-replicate curves become its reported curve.
AGGREGATES = ("first", "mean")


def _model_entry(model: str) -> tuple:
    """The (config class, sampler) pair registered for a model tag."""
    if model not in _MODELS:
        raise UnknownModelError(
            f"unknown model tag {model!r}; expected one of " + ", ".join(MODEL_TAGS)
        )
    return _MODELS[model]


def model_sampler(model: str):
    """The posterior sampler callable registered for a model tag."""
    return _model_entry(model)[1]


def _field_names(config) -> set:
    return {f.name for f in dataclasses.fields(config)}


def get_config_value(config, parameter: str) -> float:
    """Read a numeric scalar field, following dots into nested configs."""
    obj = config
    for part in parameter.split("."):
        if not dataclasses.is_dataclass(obj) or part not in _field_names(obj):
            raise UnknownParameterError(
                f"{type(obj).__name__} has no field {part!r} "
                f"(while resolving {parameter!r})"
            )
        obj = getattr(obj, part)
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise UnknownParameterError(
            f"{parameter!r} is not a numeric scalar field "
            f"(found {type(obj).__name__})"
        )
    return float(obj)


def set_config_value(config, parameter: str, value: float):
    """Return a copy of the config with one scalar field replaced.

    Integer fields stay integers; handing them a non-integer value is an
    error rather than a silent truncation.
    """
    head, _, rest = parameter.partition(".")
    if head not in _field_names(config):
        raise UnknownParameterError(
            f"{type(config).__name__} has no field {head!r}"
        )
    current = getattr(config, head)
    if rest:
        if not dataclasses.is_dataclass(current):
            raise UnknownParameterError(
                f"{head!r} has no sub-fields (while resolving {parameter!r})"
            )
        inner = set_config_value(current, rest, value)
        return dataclasses.replace(config, **{head: inner})
    if dataclasses.is_dataclass(current) or isinstance(current, bool):
        raise UnknownParameterError(f"{parameter!r} is not a numeric scalar field")
    if isinstance(current, int):
        if not float(value).is_integer():
            raise ConfigError(
                "CONFIG_BAD_VALUE",
                f"{parameter!r} takes integer values, got {value!r}",
            )
        return dataclasses.replace(config, **{head: int(value)})
    return dataclasses.replace(config, **{head: float(value)})


@dataclass(frozen=True)
class SweepSpec:
    """Description of one perturbation experiment.

    `parameter` names a numeric scalar field of the model's config, with
    dots for nested fields (e.g. "g0.b" for a Beta base measure shape).
    The baseline's own value of that field must appear among `values`.
    `band_values` lists the grid values at which replicate bands are
    computed; it needs at least two replicates to be meaningful.
    """

    model: str
    baseline: object
    parameter: str
    values: tuple
    replicates: int = 25
    band_values: tuple = ()
    mcmc: McmcControl = McmcControl()
    d_components: int = DEFAULT_N_COMPONENTS

    def __post_init__(self):
        cfg_cls = _model_entry(self.model)[0]
        if not isinstance(self.baseline, cfg_cls):
            raise ConfigError(
                "CONFIG_BAD_MODEL",
                f"model {self.model!r} needs a {cfg_cls.__name__} baseline, "
                f"got {type(self.baseline).__name__}",
            )
        values = tuple(float(v) for v in self.values)
        if len(values) == 0:
            raise ConfigError("CONFIG_BAD_GRID", "values grid is empty")
        if any(not math.isfinite(v) for v in values):
            raise ConfigError(
                "CONFIG_BAD_GRID", "values grid contains non-finite entries"
            )
        if len(set(values)) != len(values):
            raise ConfigError("CONFIG_BAD_GRID", "values grid contains duplicates")
        object.__setattr__(self, "values", values)

        base_val = get_config_value(self.baseline, self.parameter)
        if base_val not in values:
            raise ConfigError(
                "CONFIG_BAD_GRID",
                f"baseline {self.parameter}={base_val!r} is not on the grid",
            )
        # Build every perturbed config now, so a value outside the model's
        # domain is a config error before any sampler runs.
        for v in values:
            try:
                self.config_for(v)
            except (ConfigError, UnknownParameterError):
                raise
            except ValueError as exc:
                raise ConfigError(
                    "CONFIG_BAD_VALUE", f"{self.parameter}={v!r}: {exc}"
                ) from exc
        if not isinstance(self.replicates, int) or self.replicates < 1:
            raise ConfigError(
                "CONFIG_BAD_REPLICATES",
                f"replicates must be >= 1, got {self.replicates}",
            )
        band_values = tuple(float(v) for v in self.band_values)
        for v in band_values:
            if v not in values:
                raise ConfigError(
                    "CONFIG_BAD_GRID", f"band value {v!r} is not on the grid"
                )
        if len(set(band_values)) != len(band_values):
            raise ConfigError("CONFIG_BAD_GRID", "band_values contains duplicates")
        if band_values and self.replicates < 2:
            raise ConfigError(
                "CONFIG_BAD_REPLICATES",
                "replicate bands need at least 2 replicates",
            )
        object.__setattr__(self, "band_values", band_values)

        if not isinstance(self.mcmc, McmcControl):
            raise ConfigError("CONFIG_BAD_MCMC", "mcmc must be an McmcControl")
        if not isinstance(self.d_components, int) or self.d_components < 2:
            raise ConfigError(
                "CONFIG_BAD_COMPONENTS",
                f"d_components must be an integer >= 2, got {self.d_components}",
            )
        if self.mcmc.n_samples <= self.d_components:
            raise ConfigError(
                "CONFIG_BAD_MCMC",
                f"n_samples={self.mcmc.n_samples} must exceed "
                f"d_components={self.d_components}",
            )

    @property
    def baseline_value(self) -> float:
        return get_config_value(self.baseline, self.parameter)

    @property
    def baseline_index(self) -> int:
        return self.values.index(self.baseline_value)

    def config_for(self, value: float):
        """Baseline config with the swept field set to `value`."""
        if value == self.baseline_value:
            return self.baseline
        return set_config_value(self.baseline, self.parameter, value)


@dataclass(frozen=True)
class BandTriple:
    """(lo, hi) replicate band for each of the three measures."""

    d_shift: tuple
    v_spread: tuple
    e_covshape: tuple


@dataclass(frozen=True)
class SweepResult:
    """Measured curves plus provenance for one sweep.

    `triples` holds one MeasureTriple per grid value: replicate 1's when
    aggregate is "first", the field-wise replicate mean when "mean".
    `replicate_triples[r - 1]` is the full curve of replicate r.  `bands`
    maps each declared band value to its BandTriple.  `baseline_sample` is
    replicate 1's baseline posterior sample, the one `densities.csv` holds.
    """

    spec: SweepSpec
    aggregate: str
    triples: tuple
    replicate_triples: tuple
    bands: dict
    base_seed: int
    wall_clock: float
    baseline_sample: PosteriorSample

    def band_at(self, value: float) -> BandTriple:
        return self.bands[float(value)]


def _mean_triple(column: Sequence, d: int) -> MeasureTriple:
    return MeasureTriple(
        d_shift=float(np.mean([t.d_shift for t in column])),
        v_spread=float(np.mean([t.v_spread for t in column])),
        e_covshape=float(np.mean([t.e_covshape for t in column])),
        d_components=d,
    )


def _annotate(exc: Exception, where: str) -> None:
    # Keep the original exception type; just extend its message so the
    # failing grid point is visible wherever the error surfaces.
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} [{where}]",) + exc.args[1:]
    else:
        exc.args = exc.args + (where,)


def _run_task(
    data: Dataset, spec: SweepSpec, grid, karcher: dict, job: tuple
) -> tuple[SampleSummary, PosteriorSample | None]:
    """One sweep task: run the sampler for `job` and summarize its sample.

    `job` is (replicate, value index), with index None for the replicate's
    baseline run.  Only job (1, None) hands back its sample, the one
    `densities.csv` holds.  A failure keeps its type and gains the task's
    grid position in its message.
    """
    r, idx = job
    if idx is None:
        label = "the baseline"
    else:
        label = f"{spec.parameter}={spec.values[idx]:g}"
    try:
        if idx is None:
            config = spec.baseline
            ctl = dataclasses.replace(spec.mcmc, seed=derived_seed(spec.mcmc.seed, r))
        else:
            config = spec.config_for(spec.values[idx])
            ctl = dataclasses.replace(
                spec.mcmc, seed=derived_seed(spec.mcmc.seed, r, idx)
            )
        sample = _MODELS[spec.model][1](data, config, ctl, grid=grid)
        summary = summarize_sample(sample, spec.d_components, **karcher)
    except Exception as exc:
        _annotate(exc, f"sweep task failed at {label}, replicate {r}")
        raise
    return summary, (sample if job == (1, None) else None)


def run_sweep(
    data: Dataset,
    spec: SweepSpec,
    *,
    aggregate: str = "first",
    n_workers: int = 1,
    grid=None,
    karcher_eps1: float = 1e-6,
    karcher_step: float = 0.5,
    karcher_max_iter: int = 200,
) -> SweepResult:
    """Run all (value, replicate) tasks and assemble curves and bands.

    The task matrix is embarrassingly parallel.  With n_workers > 1 it runs
    on a pool of min(n_workers, number of tasks) worker processes, forked
    where the platform offers fork; errors come back with their type and
    message.  A fork copies only the calling thread, so a multi-worker
    call should come from a process that runs no other threads.  With
    n_workers == 1 every task runs in this process.  Results are assembled
    in grid order regardless of completion order, so output is a pure
    function of (data, spec, aggregate) and the geometry settings; the
    worker count never changes it.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(
            f"aggregate must be one of {', '.join(AGGREGATES)}, got {aggregate!r}"
        )
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    start = time.perf_counter()
    base_seed = spec.mcmc.seed

    jobs = []
    for r in range(1, spec.replicates + 1):
        jobs.append((r, None))
        for idx in range(len(spec.values)):
            jobs.append((r, idx))

    karcher = dict(eps1=karcher_eps1, eps2=karcher_step, max_iter=karcher_max_iter)
    task = functools.partial(_run_task, data, spec, grid, karcher)
    if n_workers == 1:
        outcomes = dict(zip(jobs, map(task, jobs)))
    else:
        # Imported here, so that importing the package does not load them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers share the imported package instead of importing it
        # again.  A fork pool starts all its workers at once, so it gets no
        # more of them than there are tasks.
        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(jobs)), mp_context=context
        ) as pool:
            outcomes = dict(zip(jobs, pool.map(task, jobs)))
    summaries = {job: summary for job, (summary, _) in outcomes.items()}

    per_replicate = []
    for r in range(1, spec.replicates + 1):
        base_summary = summaries[(r, None)]
        row = []
        for idx, value in enumerate(spec.values):
            try:
                row.append(triple_from_summaries(base_summary, summaries[(r, idx)]))
            except Exception as exc:
                _annotate(
                    exc,
                    f"measures failed at {spec.parameter}={value:g}, replicate {r}",
                )
                raise
        per_replicate.append(tuple(row))

    if aggregate == "first":
        triples = per_replicate[0]
    else:
        triples = tuple(
            _mean_triple([row[idx] for row in per_replicate], spec.d_components)
            for idx in range(len(spec.values))
        )

    bands = {}
    for value in spec.band_values:
        idx = spec.values.index(value)
        column = [row[idx] for row in per_replicate]
        bands[value] = BandTriple(
            d_shift=replicate_band([t.d_shift for t in column]),
            v_spread=replicate_band([t.v_spread for t in column]),
            e_covshape=replicate_band([t.e_covshape for t in column]),
        )

    return SweepResult(
        spec=spec,
        aggregate=aggregate,
        triples=triples,
        replicate_triples=tuple(per_replicate),
        bands=bands,
        base_seed=base_seed,
        wall_clock=time.perf_counter() - start,
        baseline_sample=outcomes[(1, None)][1],
    )


#: Preset ladders: model -> parameter -> (spacing, lo, hi).  Scale-like
#: positive parameters are spaced geometrically, location-like ones linearly.
_LADDERS = {
    "dp": {"alpha": ("geometric", 0.1, 15.0)},
    "dpgmm": {
        "alpha": ("geometric", 0.1, 15.0),
        "m": ("linear", -8.0, 8.0),
        "r": ("geometric", 1.0 / 18.0, 6.0),
        "nu": ("linear", 1.0, 15.0),
        "s": ("geometric", 0.1, 12.0),
    },
    "ccv": {
        "a0": ("linear", 1.0, 20.0),
        "a1": ("linear", 1.0, 20.0),
        "eta": ("linear", 1.0, 20.0),
        "gamma": ("geometric", 1.0, 20.0),
    },
    "dcv": {
        "a0": ("linear", 1.0, 20.0),
        "a1": ("linear", 1.0, 20.0),
        "eta": ("linear", 1.0, 20.0),
        "gamma": ("geometric", 1.0, 20.0),
        "phi": ("geometric", 1.5, 20.0),
    },
}


def _preset_values(model: str, parameter: str) -> tuple:
    """A preset ladder with its point nearest the model's default snapped onto it.

    Nearness is log distance on a geometric ladder, linear distance on a
    linear one.
    """
    spacing, lo, hi = _LADDERS[model][parameter]
    default = get_config_value(_MODELS[model][0](), parameter)
    if spacing == "geometric":
        grid = np.geomspace(lo, hi, GRID_POINTS)
        distance = np.abs(np.log(grid) - math.log(default))
    else:
        grid = np.linspace(lo, hi, GRID_POINTS)
        distance = np.abs(grid - default)
    grid[int(np.argmin(distance))] = default
    return tuple(float(v) for v in grid)


def _band_marks(values, baseline: float) -> tuple:
    """Default band values: the ladder's ends and its baseline."""
    return tuple(dict.fromkeys((values[0], baseline, values[-1])))


def sweep_grid_presets(model: str) -> list:
    """Standard 15-point ladders for a model, bands at min/baseline/max.

    Scale-like positive parameters get geometric spacing, location-like
    ones linear spacing.  Every ladder contains the baseline value
    exactly (the nearest grid point is snapped onto it).
    """
    baseline = _model_entry(model)[0]()
    specs = []
    for parameter in _LADDERS[model]:
        values = _preset_values(model, parameter)
        marks = _band_marks(values, get_config_value(baseline, parameter))
        specs.append(SweepSpec(model, baseline, parameter, values, band_values=marks))
    return specs
