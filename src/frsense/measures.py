"""Global sensitivity measures comparing two posterior density samples.

Three numbers summarize how a perturbed posterior sample differs from a
baseline sample of grid densities:

* shift: the Fisher-Rao distance between the two intrinsic means, in
  [0, pi/2];
* spread: the log ratio of the two Karcher variances, antisymmetric and
  unbounded;
* covariance shape: the Euclidean distance between the samples' scaled
  cumulative eigenvalue vectors from tangent PCA, in
  [0, e_upper_bound(d)].

All three vanish when the samples are identical.  ``summarize_sample``
reduces each sample to a SampleSummary in one Karcher pass of the geometry
core, and ``triple_from_summaries`` computes the measures from two of them;
there is no other way to get them.  Inputs can be PosteriorSample or
DensityMatrix objects, or plain sequences of GridPdf / Srd draws.  The
spectrum is the one ``tangent_pca`` reports, from the same private routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSampleError,
    InsufficientSamplesError,
    InsufficientValuesError,
)
from .geometry import KarcherInfo, _karcher_fit, _tangent_spectrum, fr_distance
from .grid import Srd, _ReadOnlyArrays

__all__ = [
    "DEFAULT_N_COMPONENTS",
    "CumulativeSpectrum",
    "MeasureTriple",
    "SampleSummary",
    "cumulative_spectrum",
    "e_upper_bound",
    "replicate_band",
    "summarize_sample",
    "triple_from_summaries",
]

#: Number of leading eigenvalues entering the covariance-shape measure.
DEFAULT_N_COMPONENTS = 20

#: Karcher variances below this are treated as degenerate (no spread).
VARIANCE_FLOOR = 1e-14


@dataclass(frozen=True)
class MeasureTriple:
    """The three sensitivity measures for one baseline/perturbation pair."""

    d_shift: float
    v_spread: float
    e_covshape: float
    d_components: int

    def __post_init__(self):
        if not 0.0 <= self.d_shift <= 0.5 * math.pi + 1e-12:
            raise ValueError(f"shift measure out of [0, pi/2]: {self.d_shift}")
        if self.d_components < 2:
            raise ValueError(f"d_components must be >= 2, got {self.d_components}")
        bound = e_upper_bound(self.d_components)
        if not 0.0 <= self.e_covshape <= bound + 1e-12:
            raise ValueError(
                f"covariance-shape measure {self.e_covshape} outside [0, {bound}]"
            )

    def astuple(self) -> tuple[float, float, float]:
        return (self.d_shift, self.v_spread, self.e_covshape)


@dataclass(frozen=True, eq=False)
class CumulativeSpectrum(_ReadOnlyArrays):
    """Cumulative eigenvalue fractions omega_1 <= ... <= omega_d = 1."""

    omega: np.ndarray = field(repr=False)

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float)
        if om.ndim != 1 or om.size < 2:
            raise ValueError("spectrum needs a vector of at least two entries")
        if om[0] <= 0.0 or om.max() > 1.0 + 1e-12:
            raise ValueError("cumulative fractions must lie in (0, 1]")
        if np.any(np.diff(om) < -1e-12):
            raise ValueError("cumulative fractions must be nondecreasing")
        if om[-1] != 1.0:
            raise ValueError("last cumulative fraction must be exactly 1")
        om = om.copy()
        om.flags.writeable = False
        object.__setattr__(self, "omega", om)

    @property
    def d(self) -> int:
        return int(self.omega.size)


def cumulative_spectrum(eigenvalues, d: int = DEFAULT_N_COMPONENTS) -> CumulativeSpectrum:
    """Scaled cumulative sums of the top ``d`` eigenvalues.

    The scaling divides by the total over those same ``d`` eigenvalues, so the
    final entry is set to 1 exactly.
    """
    if d < 2:
        raise ValueError(f"need at least two components, got d={d}")
    ev = np.asarray(eigenvalues, dtype=float)
    if ev.size < d:
        raise InsufficientSamplesError(
            f"need {d} eigenvalues, got {ev.size}"
        )
    top = ev[:d]
    total = float(top.sum())
    if total < VARIANCE_FLOOR:
        raise DegenerateSampleError("tangent spectrum has no mass to scale by")
    omega = np.cumsum(top) / total
    omega[-1] = 1.0
    return CumulativeSpectrum(omega)


def e_upper_bound(d: int) -> float:
    """Largest possible covariance-shape measure for ``d`` components.

    Attained by a rank-1 spectrum against a perfectly flat one.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    j = np.arange(1, d, dtype=float)
    return float(np.sqrt(np.sum((1.0 - j / d) ** 2)))


def _require_more_than(draws, d: int) -> None:
    if d < 2:
        raise ValueError(f"need at least two components, got d={d}")
    if len(draws) <= d:
        raise InsufficientSamplesError(
            f"need more than {d} draws for {d} components, got {len(draws)}"
        )


@dataclass(frozen=True)
class SampleSummary:
    """Geometry of one posterior sample, enough to compare it to another.

    Holds the intrinsic mean, the Karcher variance about it, the scaled
    cumulative spectrum from tangent PCA, and the convergence report of the
    one Karcher pass that produced them.  Two summaries are all a
    MeasureTriple needs, so a sweep can summarize each sampler run once and
    compare the small summaries instead of re-running PCA per pair.
    """

    mean: Srd
    variance: float
    spectrum: CumulativeSpectrum
    n_draws: int
    karcher: KarcherInfo

    @property
    def d(self) -> int:
        return self.spectrum.d


def summarize_sample(
    sample,
    d: int = DEFAULT_N_COMPONENTS,
    *,
    eps1: float = 1e-6,
    eps2: float = 0.5,
    max_iter: int = 200,
) -> SampleSummary:
    """One Karcher pass over a sample, reduced to a SampleSummary.

    The variance is the mean squared distance at the returned mean, and the
    spectrum comes from the tangents there; a mean that did not converge
    gives one RuntimeWarning and is flagged in ``SampleSummary.karcher``.
    """
    _require_more_than(sample, d)
    fit = _karcher_fit(sample, eps1, eps2, max_iter)
    fit.warn_unconverged("; principal modes may be unreliable")
    return SampleSummary(
        mean=Srd(fit.grid, fit.mean),
        variance=fit.variance,
        spectrum=cumulative_spectrum(_tangent_spectrum(fit), d),
        n_draws=len(sample),
        karcher=fit.info,
    )


def triple_from_summaries(base: SampleSummary, pert: SampleSummary) -> MeasureTriple:
    """All three measures from two precomputed summaries."""
    if base.d != pert.d:
        raise ValueError(
            f"summaries use different component counts ({base.d} vs {pert.d})"
        )
    if base.variance < VARIANCE_FLOOR or pert.variance < VARIANCE_FLOOR:
        raise DegenerateSampleError(
            f"Karcher variance below {VARIANCE_FLOOR:g} (base {base.variance:g}, "
            f"perturbed {pert.variance:g}); the log ratio is undefined"
        )
    d_shift = fr_distance(base.mean, pert.mean)
    v_spread = math.log(pert.variance) - math.log(base.variance)
    e_covshape = float(np.linalg.norm(base.spectrum.omega - pert.spectrum.omega))
    return MeasureTriple(d_shift, v_spread, e_covshape, base.d)


def replicate_band(values, level: float = 0.95) -> tuple[float, float]:
    """Central empirical interval of replicate measure values.

    Quantiles at (1 - level)/2 and 1 - (1 - level)/2, linear interpolation.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise InsufficientValuesError(
            f"band needs at least two values, got {vals.size}"
        )
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(vals, [tail, 1.0 - tail])
    return float(lo), float(hi)
