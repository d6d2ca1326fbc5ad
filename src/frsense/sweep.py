"""Perturbation sweeps: one parameter varied over a grid, rest fixed.

A sweep runs the chosen sampler once per replicate with the baseline
config, once per (grid value, replicate) with a single scalar field
replaced, and reduces every run to a SampleSummary.  Comparing the
baseline summary of a replicate against each perturbed summary of the
same replicate yields one MeasureTriple per grid value; quantile bands
over replicates quantify the Monte Carlo noise of the measures at
selected grid values.  ``SweepSpec.runs()`` lists the runs; each task
derives its run's seed from the replicate and value index, so appending
replicates or grid values keeps every earlier row, and inserting a value
reseeds the values after it.
``SweepSpec.check(grid, n)`` holds the plan's rules that need the grid or
the data; ``run_sweep`` applies it before any task runs.
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
from .geometry import KARCHER_EPS1, KARCHER_MAX_ITER, KARCHER_STEP
from .grid import Grid, default_grid
from .measures import (
    DEFAULT_N_COMPONENTS,
    MeasureTriple,
    SampleSummary,
    replicate_band,
    summarize_sample,
    triple_from_summaries,
)
from . import samplers
from .samplers import Dataset, McmcControl, PosteriorSample, derived_seed

__all__ = [
    "BandTriple",
    "SweepResult",
    "SweepSpec",
    "get_config_value",
    "model_config",
    "model_sampler",
    "run_sweep",
    "set_config_value",
]

#: Each model tag's config class and sampler, by their names in ``samplers``;
#: looking a tag up loads only that model's sampler module.
_MODELS = {
    "dp": ("DpConfig", "dp_posterior"),
    "dpgmm": ("DpgmmConfig", "dpgmm_posterior"),
    "ccv": ("CcvConfig", "ccv_posterior"),
    "dcv": ("DcvConfig", "dcv_posterior"),
}

#: How a sweep's per-replicate curves become its reported curve.
AGGREGATES = ("first", "mean")

#: Bytes that one ``(n_samples, n_points)`` float64 matrix of a sample, or
#: any other array a sampler holds, may take; a sweep task holds a few such
#: arrays at once.
SAMPLE_MATRIX_BYTES = 2**30

#: Bytes per auxiliary slot of one dcv sweep: five float64 arrays (the
#: slots' observations, means, zetas, variances and log weights) and the
#: three lists that ``_DcvChain._assign`` copies the weights, means and
#: zetas to, at 8 bytes a pointer plus 24 a Python float.
_DCV_SLOT_BYTES = 5 * 8 + 3 * (8 + 24)


def _check_bytes(code: str, n_bytes: int, what: str) -> None:
    if n_bytes > SAMPLE_MATRIX_BYTES:
        raise ConfigError(
            code,
            f"{what} needs {n_bytes / 2**30:.3g} GiB in one array; "
            f"the limit is {SAMPLE_MATRIX_BYTES / 2**30:g} GiB",
        )


def _model_entry(model: str) -> tuple:
    """The (config class, sampler) pair registered for a model tag."""
    if model not in _MODELS:
        raise UnknownModelError(
            f"unknown model tag {model!r}; expected one of " + ", ".join(sorted(_MODELS))
        )
    return tuple(getattr(samplers, name) for name in _MODELS[model])


def model_config(model: str) -> type:
    """The config class registered for a model tag."""
    return _model_entry(model)[0]


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
        cfg_cls = model_config(self.model)
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

    def check(self, grid: Grid, n: int) -> None:
        """Refuse a plan that ``grid`` and ``n`` observations cannot hold.

        ``d_components`` must fit in the grid, a set dp bandwidth must reach
        its spacing, and each array a sampler sizes from the plan must fit
        in ``SAMPLE_MATRIX_BYTES``, at every swept value.
        """
        n_samples, n_points = self.mcmc.n_samples, grid.n_points
        _check_bytes(
            "CONFIG_BAD_GEOMETRY",
            8 * n_samples * n_points,
            f"n_points = {n_points} with n_samples = {n_samples}",
        )
        # A summary has min(n_samples, n_points) eigenvalues.
        if self.d_components > n_points:
            raise ConfigError(
                "CONFIG_BAD_COMPONENTS",
                f"d_components={self.d_components} exceeds the {n_points} grid points",
            )
        for config in map(self.config_for, self.values):
            if self.model == "dp":
                # Below one grid spacing the binned atoms of Q outgrow their
                # error bound, 0.15 (spacing / bandwidth)^2 of a row's maximum.
                if config.bandwidth is not None and config.bandwidth < grid.spacing:
                    raise ConfigError(
                        "CONFIG_BAD_VALUE",
                        f"bandwidth = {config.bandwidth!r} is below the grid spacing "
                        f"{grid.spacing:.3g} of the {n_points}-point grid",
                    )
                _check_bytes(
                    "CONFIG_BAD_VALUE",
                    8 * config.truncation * n_samples,
                    f"truncation = {config.truncation} with n_samples = {n_samples}",
                )
            elif self.model == "dcv":
                _check_bytes(
                    "CONFIG_BAD_VALUE",
                    _DCV_SLOT_BYTES * n * config.aux_m,
                    f"aux_m = {config.aux_m} with {n} observations",
                )
        if self.model == "dp":
            _check_bytes(
                "CONFIG_BAD_MCMC",
                8 * n_samples * n,
                f"n_samples = {n_samples} with {n} observations",
            )
            _check_bytes(
                "CONFIG_BAD_GEOMETRY",
                8 * n_points * n,
                f"n_points = {n_points} with {n} observations",
            )

    @property
    def baseline_value(self) -> float:
        return get_config_value(self.baseline, self.parameter)

    def config_for(self, value: float):
        """Baseline config with the swept field set to `value`."""
        if value == self.baseline_value:
            return self.baseline
        return set_config_value(self.baseline, self.parameter, value)

    def runs(self) -> tuple:
        """Every sampler run as (replicate, value index), in run order.

        Replicates run in turn, each baseline (index None) first.
        """
        return tuple(
            (r, idx)
            for r in range(1, self.replicates + 1)
            for idx in (None, *range(len(self.values)))
        )


@dataclass(frozen=True)
class BandTriple:
    """(lo, hi) replicate band for each of the three measures."""

    d_shift: tuple
    v_spread: tuple
    e_covshape: tuple


@dataclass(frozen=True)
class SweepResult:
    """Measured curves of one sweep.

    `triples` holds one MeasureTriple per grid value: replicate 1's when
    the aggregate was "first", the field-wise replicate mean when "mean".
    `replicate_triples[r - 1]` is the full curve of replicate r.  `bands`
    maps each declared band value to its BandTriple.  `baseline_sample` is
    replicate 1's baseline posterior sample, the one `densities.csv` holds.
    """

    spec: SweepSpec
    triples: tuple
    replicate_triples: tuple
    bands: dict
    wall_clock: float
    baseline_sample: PosteriorSample

    def band_at(self, value: float) -> BandTriple:
        return self.bands[float(value)]


def _measure_columns(per_replicate: Sequence, idx: int) -> tuple:
    """The replicates' D, V and E values at grid index ``idx``, one tuple each."""
    return tuple(zip(*(row[idx].astuple() for row in per_replicate)))


def _annotate(exc: Exception, where: str) -> None:
    # Keep the original exception type and the number of its arguments, so
    # that a worker's error is rebuilt in the parent as type(exc)(*args).
    # A message gains the failing grid point; an error whose arguments are
    # not a message carries it as a note, which a traceback prints.
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]} [{where}]",) + exc.args[1:]
    else:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), where]


def _run_task(
    data: Dataset, spec: SweepSpec, grid, karcher: dict, run: tuple
) -> tuple[SampleSummary, PosteriorSample | None]:
    """One sweep task: the sampler run `run` of ``spec.runs()``, summarized.

    The run's seed is keyed by its replicate and value index.  Only
    replicate 1's baseline run hands back its sample, for densities.csv.
    A failure keeps its type and gains the task's grid position in its message.
    """
    r, idx = run
    value = spec.baseline_value if idx is None else spec.values[idx]
    label = "the baseline" if idx is None else f"{spec.parameter}={value:g}"
    try:
        ctl = dataclasses.replace(spec.mcmc, seed=derived_seed(spec.mcmc.seed, r, idx))
        sample = model_sampler(spec.model)(data, spec.config_for(value), ctl, grid=grid)
        summary = summarize_sample(sample, spec.d_components, **karcher)
    except Exception as exc:
        _annotate(exc, f"sweep task failed at {label}, replicate {r}")
        raise
    return summary, (sample if (r, idx) == (1, None) else None)


def run_sweep(
    data: Dataset,
    spec: SweepSpec,
    *,
    aggregate: str = "first",
    n_workers: int = 1,
    grid=None,
    karcher_eps1: float = KARCHER_EPS1,
    karcher_step: float = KARCHER_STEP,
    karcher_max_iter: int = KARCHER_MAX_ITER,
) -> SweepResult:
    """Run every task of ``spec.runs()`` and assemble curves and bands.

    With n_workers > 1 the tasks run on a pool of min(n_workers, number of
    tasks) worker processes, forked where the platform offers fork; errors
    come back with their type and message.  A fork copies only the calling
    thread, so a multi-worker call should come from a process that runs no
    other threads.  With n_workers == 1 every task runs in this process.
    Results are assembled in run order regardless of completion order, so
    output is a pure function of (data, spec, aggregate) and the geometry
    settings; the worker count never changes it.  ``spec.check`` runs first,
    on the default grid when ``grid`` is None.
    """
    if aggregate not in AGGREGATES:
        raise ValueError(
            f"aggregate must be one of {', '.join(AGGREGATES)}, got {aggregate!r}"
        )
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    spec.check(grid or default_grid(), data.n)
    start = time.perf_counter()
    runs = spec.runs()

    karcher = dict(eps1=karcher_eps1, eps2=karcher_step, max_iter=karcher_max_iter)
    task = functools.partial(_run_task, data, spec, grid, karcher)
    if n_workers == 1:
        outcomes = list(map(task, runs))
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
            max_workers=min(n_workers, len(runs)), mp_context=context
        ) as pool:
            outcomes = list(pool.map(task, runs))
    summaries = {run: summary for run, (summary, _) in zip(runs, outcomes)}

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
            MeasureTriple(
                *(float(np.mean(m)) for m in _measure_columns(per_replicate, idx)),
                spec.d_components,
            )
            for idx in range(len(spec.values))
        )

    bands = {
        value: BandTriple(
            *map(replicate_band, _measure_columns(per_replicate, spec.values.index(value)))
        )
        for value in spec.band_values
    }

    return SweepResult(
        spec=spec,
        triples=triples,
        replicate_triples=tuple(per_replicate),
        bands=bands,
        wall_clock=time.perf_counter() - start,
        baseline_sample=outcomes[0][1],
    )

