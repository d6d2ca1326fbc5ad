"""Shared sampler infrastructure: data container, chain controls, outputs.

The Gibbs samplers (dpgmm, ccv, dcv) are chains run by ``_run_chain``, the
one burn-in/thin keep loop and the one place their ``PosteriorSample`` is
built.  A chain has ``sweep()``, one full update drawing from the generator
it was built with; ``emit_row(grid)``, the state's predictive density on
the grid, unnormalized; ``TRACE_NAMES`` and ``trace_row()``, the names and
current values of its monitored scalars; and ``diagnostics()``, a dict of
whole-run scalars read once at the end.  ``_drop_cluster`` is the chains'
one swap-with-last cluster delete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigError, EmptyDatasetError, InvalidSettingError
from ..grid import DensityMatrix, Grid, _ReadOnlyArrays, default_grid, normalize_rows

__all__ = [
    "Dataset",
    "McmcControl",
    "PosteriorSample",
    "derived_seed",
    "make_rng",
    "sample_crp_partition",
    "silverman_bandwidth",
]

#: Rescaled observations are kept this far inside [0, 1] on both sides.
MARGIN = 0.05


@dataclass(frozen=True)
class Dataset(_ReadOnlyArrays):
    """Observations in original units plus the affine map into [0, 1].

    ``(x - shift) / scale`` sends the observed range onto
    ``[MARGIN, 1 - MARGIN]``; samplers only ever see the rescaled values.
    """

    observations: np.ndarray = field(repr=False)
    shift: float
    scale: float

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1 or obs.size == 0:
            raise EmptyDatasetError("dataset needs at least one observation")
        obs = obs.copy()
        obs.flags.writeable = False
        object.__setattr__(self, "observations", obs)
        if not np.isfinite(obs).all():
            raise ConfigError("DATA_NONFINITE", "observations must be finite")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        finite = math.isfinite(self.shift) and math.isfinite(self.scale)
        if not (finite and np.isfinite(self.rescaled).all()):
            raise ConfigError(
                "DATA_NONFINITE",
                f"shift={self.shift!r}, scale={self.scale!r}: the rescaled "
                "observations do not fit in double precision",
            )
        r = self.rescaled
        if r.min() < MARGIN - 1e-9 or r.max() > 1.0 - MARGIN + 1e-9:
            raise ValueError("rescaled observations leave the margin envelope")

    @classmethod
    def from_observations(cls, values) -> "Dataset":
        """Build a dataset whose range lands exactly on the margin envelope.

        Degenerate samples (all values equal) are centered at 1/2 with unit
        scale instead.
        """
        obs = np.asarray(values, dtype=float)
        if obs.ndim != 1 or obs.size == 0:
            raise EmptyDatasetError("dataset needs at least one observation")
        lo, hi = float(obs.min()), float(obs.max())
        if hi > lo:
            scale = (hi - lo) / (1.0 - 2.0 * MARGIN)
            shift = lo - MARGIN * scale
        else:
            scale = 1.0
            shift = lo - 0.5
        return cls(observations=obs, shift=shift, scale=scale)

    @property
    def n(self) -> int:
        return int(self.observations.size)

    @cached_property
    def rescaled(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # __post_init__ rejects an overflow
            r = (self.observations - self.shift) / self.scale
        r.flags.writeable = False
        return r


def check_settings(obj, finite=(), positive=(), integers=()) -> None:
    """Raise InvalidSettingError unless the named fields of ``obj`` are
    finite numbers, above zero where named in ``positive``, and Python or
    numpy integers, stored as Python ints, where named in ``integers``."""
    for name in integers:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidSettingError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))
    for name in (*finite, *positive):
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise InvalidSettingError(f"{name} must be finite, got {value!r}")
        if name in positive and value <= 0.0:
            raise InvalidSettingError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class McmcControl:
    """Chain length bookkeeping shared by every sampler."""

    n_samples: int = 500
    burn_in: int = 1000
    thin: int = 5
    seed: int = 0

    def __post_init__(self):
        check_settings(self, integers=("n_samples", "burn_in", "thin", "seed"))
        if self.n_samples < 10:
            raise InvalidSettingError(f"n_samples must be >= 10, got {self.n_samples}")
        if self.burn_in < 0:
            raise InvalidSettingError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise InvalidSettingError(f"thin must be >= 1, got {self.thin}")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidSettingError("seed must fit in 64 unsigned bits")

    @property
    def n_sweeps(self) -> int:
        """Sweeps a chain runs: through the last retained one."""
        return self.burn_in + (self.n_samples - 1) * self.thin + 1


@dataclass(frozen=True, eq=False)
class PosteriorSample(DensityMatrix):
    """Density draws emitted by one sampler run.

    ``densities`` is the validated ``(n_draws, n_points)`` matrix of the
    draws in emission order; ``pdfs`` and indexing give GridPdf views of its
    rows.  ``trace`` holds one scalar series per monitored quantity (cluster
    count, sampled hyperparameters, ...) aligned with the rows;
    ``diagnostics`` holds whole-run scalars such as acceptance rates.  The
    caller holds the model, seed and config that made the run.
    """

    trace: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        if len(self) == 0:
            raise EmptyDatasetError("posterior sample needs at least one draw")

    @property
    def n_draws(self) -> int:
        return len(self)

    @property
    def pdfs(self) -> list:
        """The draws as GridPdf views, built on each access."""
        return list(self)


#: The spawn-key slot of a replicate's baseline run (value index None).
_BASELINE_SLOT = 0xFFFFFFFF


def derived_seed(base_seed: int, replicate: int, value_index: int | None = None) -> int:
    """Deterministic per-task seed from the base seed and the task position.

    ``value_index=None`` addresses the replicate's baseline run.  The seed is
    the first uint64 of ``SeedSequence(base_seed, spawn_key=(replicate,
    slot))``; ``numpy.random`` loads on the first call, in the process that
    samples.  A negative input raises ValueError, as numpy does.
    """
    slot = _BASELINE_SLOT if value_index is None else value_index
    sequence = np.random.SeedSequence(base_seed, spawn_key=(replicate, slot))
    return int(sequence.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def sample_crp_partition(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of cluster labels from the Chinese restaurant process prior.

    Sequential seating: observation i starts a new cluster with probability
    alpha / (alpha + i) and otherwise joins an existing cluster with
    probability proportional to its size.
    """
    labels = np.zeros(n, dtype=np.int64)
    counts = [1]
    for i in range(1, n):
        j = _pick_linear([alpha, *counts], rng.random(), alpha + i)
        if j == 0:
            labels[i] = len(counts)
            counts.append(1)
        else:
            labels[i] = j - 1
            counts[j - 1] += 1
    return labels


def _pick(logw: list, u: float, exp=math.exp, fsum=math.fsum) -> int:
    """Index j drawn with probability proportional to exp(logw[j]).

    ``u`` is one uniform on [0, 1); see ``_pick_linear``.
    """
    mx = max(logw)
    weights = [exp(lw - mx) for lw in logw]
    return _pick_linear(weights, u, fsum(weights))


def _pick_linear(weights: list, u: float, total: float) -> int:
    """Index j drawn with probability proportional to ``weights[j]``.

    ``u`` is one uniform on [0, 1) and ``total`` is ``math.fsum(weights)``,
    which the caller has already computed (``fsum`` gives it the same bits
    on every Python version); the draw inverts the cumulative weights.
    """
    u *= total
    acc = 0.0
    for j, w in enumerate(weights):
        acc += w
        if u < acc:
            return j
    return len(weights) - 1


def _cluster_stats(x, labels) -> tuple:
    """Per-cluster (counts, sums, sums of squares), accumulated in index order."""
    k = int(max(labels)) + 1
    counts = [0] * k
    sums = [0.0] * k
    sqs = [0.0] * k
    for xi, li in zip(x, labels):
        counts[li] += 1
        sums[li] += xi
        sqs[li] += xi * xi
    return counts, sums, sqs


def _drop_cluster(j: int, columns, labels: list) -> list:
    """Delete cluster j from each per-cluster list by moving the last
    cluster into its slot; return the labels with that move applied."""
    last = len(columns[0]) - 1
    if j != last:
        for values in columns:
            values[j] = values[last]
        labels = [j if li == last else li for li in labels]
    for values in columns:
        del values[-1]
    return labels


def _run_chain(chain, ctl: McmcControl, grid: Grid | None) -> PosteriorSample:
    """Run ``chain``, built from its config and ``ctl.seed``, for
    ``ctl.n_sweeps`` sweeps and keep every ``thin``-th state after
    ``burn_in``; ``grid=None`` means the default grid."""
    grid = grid or default_grid()
    names = chain.TRACE_NAMES
    rows = np.empty((ctl.n_samples, grid.n_points))
    trace = np.empty((ctl.n_samples, len(names)))
    for sweep in range(ctl.n_sweeps):
        chain.sweep()
        kept, off = divmod(sweep - ctl.burn_in, ctl.thin)
        if kept >= 0 and off == 0:
            rows[kept] = chain.emit_row(grid)
            trace[kept] = chain.trace_row()
    return PosteriorSample(
        grid=grid,
        densities=normalize_rows(grid, rows),
        trace={name: trace[:, idx].copy() for idx, name in enumerate(names)},
        diagnostics=chain.diagnostics(),
    )


def silverman_bandwidth(values: np.ndarray, grid: Grid) -> float:
    """Rule-of-thumb kernel bandwidth, floored at twice the grid spacing."""
    n = values.size
    floor = 2.0 * grid.spacing
    if n < 2:
        return floor
    sd = float(np.std(values, ddof=1))
    return max(1.06 * sd * n ** (-0.2), floor)

