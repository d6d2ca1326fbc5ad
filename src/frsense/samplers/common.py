"""Shared sampler infrastructure: data container, chain controls, outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import EmptyDatasetError, InvalidSettingError
from ..grid import DensityMatrix, Grid, _ReadOnlyArrays

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
    name: str = ""

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 1 or obs.size == 0:
            raise EmptyDatasetError("dataset needs at least one observation")
        obs = obs.copy()
        obs.flags.writeable = False
        object.__setattr__(self, "observations", obs)
        if not np.isfinite(obs).all():
            raise ValueError("observations must be finite")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        r = self.rescaled
        if r.min() < MARGIN - 1e-9 or r.max() > 1.0 - MARGIN + 1e-9:
            raise ValueError("rescaled observations leave the margin envelope")

    @classmethod
    def from_observations(cls, values, name: str = "") -> "Dataset":
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
        return cls(observations=obs, shift=shift, scale=scale, name=name)

    @property
    def n(self) -> int:
        return int(self.observations.size)

    @cached_property
    def rescaled(self) -> np.ndarray:
        r = (self.observations - self.shift) / self.scale
        r.flags.writeable = False
        return r


def check_settings(obj, finite=(), positive=()) -> None:
    """Raise InvalidSettingError unless the named fields of ``obj`` are
    finite numbers, and above zero where named in ``positive``."""
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
        return self.burn_in + self.n_samples * self.thin


@dataclass(frozen=True, eq=False)
class PosteriorSample(DensityMatrix):
    """Density draws emitted by one sampler run.

    ``densities`` is the validated ``(n_draws, n_points)`` matrix of the
    draws in emission order; ``pdfs`` and indexing give GridPdf views of its
    rows.  ``trace`` holds one scalar series per monitored quantity (cluster
    count, sampled hyperparameters, ...) aligned with the rows;
    ``diagnostics`` holds whole-run scalars such as acceptance rates.
    """

    model: str
    seed: int
    config: object = None
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


_BASELINE_SLOT = 0xFFFFFFFF


def derived_seed(base_seed: int, replicate: int, value_index: int | None = None) -> int:
    """Deterministic per-task seed from the base seed and the task position.

    ``value_index=None`` addresses the replicate's baseline run.  Uses the
    documented SeedSequence hash so the mapping is stable across platforms.
    """
    slot = _BASELINE_SLOT if value_index is None else int(value_index)
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(replicate), slot))
    return int(ss.generate_state(1, np.uint64)[0])


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
        u = rng.random() * (alpha + i)
        if u < alpha:
            labels[i] = len(counts)
            counts.append(1)
        else:
            acc = alpha
            for j, c in enumerate(counts):
                acc += c
                if u < acc:
                    labels[i] = j
                    counts[j] += 1
                    break
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


def silverman_bandwidth(values: np.ndarray, grid: Grid) -> float:
    """Rule-of-thumb kernel bandwidth, floored at twice the grid spacing."""
    n = values.size
    floor = 2.0 * grid.spacing
    if n < 2:
        return floor
    sd = float(np.std(values, ddof=1))
    return max(1.06 * sd * n ** (-0.2), floor)

