"""Fisher-Rao geometry of densities via their square-root representatives.

Under the square-root map a density becomes a unit vector psi with psi >= 0,
and the Fisher-Rao metric becomes the round sphere metric, so every geometric
quantity here has a closed form on the sphere:

* distance          acos <psi1, psi2>
* exponential map   cos(|v|) psi + sin(|v|) v / |v|
* inverse exp map   (u / sin u) (psi2 - cos(u) psi1)   with u the distance

The exponential map is private: the Karcher iteration and
``geodesic_path`` shoot along it, clamped back into the orthant.  Distances
and log-map terms are computed over the rows of a matrix, by ``_distances``
and ``_log_terms``; ``fr_distance`` and ``inv_exp_map`` are their one-row case.

Intrinsic means are computed by gradient descent on the sum of squared
distances (tangent averaging), and principal modes of a sample come from the
eigendecomposition of the tangent covariance with quadrature-weight scaling,
so eigenvalues approximate those of the continuum covariance operator.

Every sample statistic goes through one private core, ``_karcher_fit``: the
sample becomes one SRD matrix (validated, square-rooted and put in canonical
row order once).  A Karcher step needs only the mean log map (two
matrix-vector products); at the returned mean the distances give the variance
and the weight-scaled tangents, formed once, the spectrum, which
``_tangent_spectrum`` decomposes for ``summarize_sample`` (eigenvalues) and
``tangent_pca`` (eigenvalues and eigenfunctions) alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AntipodalOrBoundaryError,
    EmptyInputError,
    GridMismatchError,
    InsufficientSamplesError,
)
from .grid import (
    DensityMatrix,
    Grid,
    GridPdf,
    Srd,
    TangentVector,
    check_same_grid,
    from_srd,
    srd_rows,
    to_srd,
)

__all__ = [
    "fr_distance",
    "inv_exp_map",
    "geodesic_path",
    "karcher_mean",
    "karcher_variance",
    "tangent_pca",
    "KarcherInfo",
    "TpcaResult",
]

#: Tangent norms below this take the small-angle branch: exp is the identity
#: and log is zero.
SMALL_ANGLE = 1e-12

#: Log maps are refused within this margin of the orthant boundary at pi/2.
BOUNDARY_MARGIN = 1e-9

#: Karcher iteration defaults of every entry point: the gradient-norm
#: tolerance, the step size and the iteration cap.
KARCHER_EPS1 = 1e-6
KARCHER_STEP = 1.0
KARCHER_MAX_ITER = 200


def _as_srd(obj) -> Srd:
    if isinstance(obj, Srd):
        return obj
    if isinstance(obj, GridPdf):
        return to_srd(obj)
    raise TypeError(f"expected GridPdf or Srd, got {type(obj).__name__}")


def _angle_from_chord(chord_sq) -> np.ndarray:
    """Great-circle angle from the squared chord length |psi1 - psi2|^2.

    Equivalent to acos of the inner product but numerically exact at zero
    separation (bit-identical inputs give angle 0.0, not ~1e-8), which keeps
    degenerate sensitivity comparisons exactly zero.
    """
    half = 0.5 * np.sqrt(np.clip(chord_sq, 0.0, 4.0))
    return 2.0 * np.arcsin(np.clip(half, 0.0, 1.0))


def fr_distance(p1, p2) -> float:
    """Fisher-Rao distance between two densities (or their SRDs).

    Always lies in [0, pi/2] because square-root densities sit in the
    nonnegative orthant of the unit sphere.
    """
    psi1, psi2 = _as_srd(p1), _as_srd(p2)
    check_same_grid(psi1, psi2)
    return float(_distances(psi1.grid, psi1.values, psi2.values[None])[0])


def _exp_values(grid: Grid, base: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sphere exponential on raw arrays, clamped back into the orthant."""
    theta = grid.norm(v)
    if theta < SMALL_ANGLE:
        return base.copy()
    out = np.cos(theta) * base + (np.sin(theta) / theta) * v
    np.clip(out, 0.0, None, out=out)
    return out / grid.norm(out)


def inv_exp_map(psi1: Srd, psi2: Srd) -> TangentVector:
    """Tangent vector at ``psi1`` whose exponential reaches ``psi2``.

    The returned vector has norm equal to ``fr_distance(psi1, psi2)`` and is
    orthogonal to ``psi1``.

    Raises
    ------
    GridMismatchError
        If the two SRDs live on different grids.
    AntipodalOrBoundaryError
        If the points are a quarter circle (or more) apart, where the log map
        of the orthant stops being well defined.
    """
    check_same_grid(psi1, psi2)
    cosines, _, factor = _log_terms(psi1.grid, psi1.values, psi2.values[None])
    return TangentVector(psi1, factor[0] * (psi2.values - cosines[0] * psi1.values))


def geodesic_path(p1: GridPdf, p2: GridPdf, n_steps: int) -> list[GridPdf]:
    """Densities along the Fisher-Rao geodesic from ``p1`` to ``p2``.

    Returns ``n_steps`` equally spaced points including both endpoints, so
    consecutive points are ``fr_distance(p1, p2) / (n_steps - 1)`` apart.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    psi1 = _as_srd(p1)
    psi2 = _as_srd(p2)
    v = inv_exp_map(psi1, psi2)
    path = []
    for t in np.linspace(0.0, 1.0, n_steps):
        vals = _exp_values(psi1.grid, psi1.values, t * v.values)
        path.append(from_srd(Srd(psi1.grid, vals)))
    return path


@dataclass(frozen=True)
class KarcherInfo:
    """Convergence report for the intrinsic mean iteration."""

    converged: bool
    n_iter: int
    grad_norm: float


def _canonical_order(rows: np.ndarray) -> np.ndarray:
    """Row order by raw bytes: every permutation of the same rows sorts alike.

    Every consumer (mean, variance, tangent PCA) is a symmetric function of
    the sample; sorting before any arithmetic makes that exact in floating
    point, not just in theory.
    """
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return np.argsort(keys.ravel(), kind="stable")


def _srd_matrix(samples) -> tuple[Grid, np.ndarray]:
    """Grid and canonically ordered SRD matrix of a sample.

    A DensityMatrix (such as a PosteriorSample) or a sequence of GridPdf is
    sorted and square-rooted as one matrix; any other sequence is lifted
    item by item with ``_as_srd`` and then sorted.
    """
    if len(samples) == 0:
        raise EmptyInputError("need at least one SRD")
    if isinstance(samples, DensityMatrix):
        grid, rows, densities = samples.grid, samples.densities, True
    else:
        grid = samples[0].grid
        for s in samples[1:]:
            if s.grid != grid:
                raise GridMismatchError("SRDs live on different grids")
        densities = all(isinstance(s, GridPdf) for s in samples)
        rows = np.stack([s.values if densities else _as_srd(s).values for s in samples])
    rows = rows[_canonical_order(rows)]
    return grid, srd_rows(grid, rows) if densities else rows


def _distances(grid: Grid, base: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Fisher-Rao distance of every row of ``psi`` from ``base``."""
    sq = np.subtract(psi, base)
    np.square(sq, out=sq)
    return _angle_from_chord(sq @ grid.weights)


def _log_terms(grid: Grid, base: np.ndarray, psi: np.ndarray):
    """Terms of the inverse exp map of every row of ``psi`` at ``base``.

    Returns the cosines c, the distances u and the factors f = u / sin u, with
    f = 0 below SMALL_ANGLE as ``_exp_values`` takes a step that short as no
    step; the log map of row i is ``f[i] * (psi[i] - c[i] * base)``.
    """
    cosines = np.clip(psi @ (grid.weights * base), -1.0, 1.0)
    u = _distances(grid, base, psi)
    if np.any(u >= np.pi / 2.0 - BOUNDARY_MARGIN):
        raise AntipodalOrBoundaryError(
            f"a point is {u.max():.6f} from the base, log map undefined"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        factor = np.where(u < SMALL_ANGLE, 0.0, u / np.sin(u))
    return cosines, u, factor


@dataclass(frozen=True)
class _KarcherFit:
    """One Karcher pass over a sample, with what it leaves at the mean.

    ``tangents`` are the weight-scaled log maps of the (canonically ordered)
    draws at ``mean``, and ``distances`` their Fisher-Rao distances from it.
    """

    grid: Grid
    mean: np.ndarray
    tangents: np.ndarray
    distances: np.ndarray
    info: KarcherInfo

    @property
    def variance(self) -> float:
        return float(np.mean(self.distances**2))

    def warn_unconverged(self, consequence: str = "") -> None:
        if not self.info.converged:
            warnings.warn(
                f"intrinsic mean not converged after {self.info.n_iter} iterations "
                f"(gradient norm {self.info.grad_norm:.3e}){consequence}",
                RuntimeWarning,
                stacklevel=3,
            )


def _karcher_fit(
    samples,
    eps1: float = KARCHER_EPS1,
    eps2: float = KARCHER_STEP,
    max_iter: int = KARCHER_MAX_ITER,
) -> _KarcherFit:
    """The Karcher iteration of ``karcher_mean``, with the tangents at its mean."""
    grid, psi = _srd_matrix(samples)
    vals = psi.mean(axis=0)
    vals = vals / grid.norm(vals)

    best = None
    best_gnorm = np.inf
    converged = False
    n_iter = 0
    for n_iter in range(max_iter + 1):
        cosines, u, factor = _log_terms(grid, vals, psi)
        # The mean of the log maps f_i (psi_i - c_i vals), without forming them.
        dbar = (factor @ psi - (factor @ cosines) * vals) / len(psi)
        gnorm = grid.norm(dbar)
        if best is None or gnorm < best_gnorm:
            best_gnorm = gnorm
            best = (vals, cosines, u, factor)
        if gnorm < eps1:
            converged = True
            break
        if n_iter == max_iter:
            break
        vals = _exp_values(grid, vals, eps2 * dbar)

    vals, cosines, u, factor = best
    scaled = factor[:, None] * (psi - cosines[:, None] * vals) * np.sqrt(grid.weights)
    info = KarcherInfo(converged=converged, n_iter=n_iter, grad_norm=float(best_gnorm))
    return _KarcherFit(grid, vals, scaled, u, info)


def karcher_mean(
    samples,
    eps1: float = KARCHER_EPS1,
    eps2: float = KARCHER_STEP,
    max_iter: int = KARCHER_MAX_ITER,
    full_output: bool = False,
):
    """Intrinsic (Karcher) mean of a sample of densities or SRDs.

    Gradient descent on the Frechet functional: average the log maps of all
    samples at the current estimate, step along that average scaled by
    ``eps2``, stop once the average's norm drops below ``eps1``.  The
    iteration starts from the normalized extrinsic average.

    Parameters
    ----------
    samples : DensityMatrix, or sequence of GridPdf or Srd
    eps1 : float
        Gradient-norm stopping tolerance.
    eps2 : float
        Step size applied to the tangent average.
    max_iter : int
        Update budget; if exhausted, the best iterate seen (smallest gradient
        norm) is returned and flagged.
    full_output : bool
        When true, return ``(mean, KarcherInfo)``; otherwise return the mean
        alone and warn if the iteration did not converge.

    Raises
    ------
    EmptyInputError
        If ``samples`` is empty.
    """
    fit = _karcher_fit(samples, eps1, eps2, max_iter)
    mean = Srd(fit.grid, fit.mean)
    if full_output:
        return mean, fit.info
    fit.warn_unconverged()
    return mean


def karcher_variance(samples, mean) -> float:
    """Average squared Fisher-Rao distance of ``samples`` from ``mean``.

    ``mean`` is an Srd or a GridPdf, lifted as ``fr_distance`` lifts it.
    """
    grid, psi = _srd_matrix(samples)
    mean = _as_srd(mean)
    check_same_grid(samples[0], mean)
    return float(np.mean(_distances(grid, mean.values, psi) ** 2))


def _tangent_spectrum(fit: _KarcherFit, vectors: bool = False):
    """Spectrum of the weighted tangent covariance, nonincreasing.

    The fit's tangents, scaled by the square roots of the quadrature weights,
    form an n x p matrix S.  The nonzero spectrum of the p x p covariance
    ``S^T S / (n - 1)`` equals that of the n x n Gram matrix
    ``S S^T / (n - 1)`` (the method of snapshots), so the smaller of the two
    is decomposed and the result has ``min(n, p)`` entries.

    With ``vectors`` it also returns the eigenfunctions as ``TpcaResult``
    holds them.  From the Gram matrix's eigenvectors U they are ``S^T U``
    orthonormalized by one QR, which keeps null directions orthonormal too,
    where dividing by ``sqrt((n - 1) lambda)`` would blow up rounding noise.
    The matrix is positive semidefinite, so the eigenvalues that rounding
    leaves below zero are clipped to zero.
    """
    scaled = fit.tangents
    n, p = scaled.shape
    gram = n <= p
    small = (scaled @ scaled.T if gram else scaled.T @ scaled) / (n - 1)
    if not vectors:
        return np.clip(np.linalg.eigvalsh(small)[::-1], 0.0, None)
    evals, evecs = np.linalg.eigh(small)
    evecs = evecs[:, ::-1]
    if gram:
        evecs = np.linalg.qr(scaled.T @ evecs)[0]
    funcs = evecs / np.sqrt(fit.grid.weights)[:, None]
    flip = funcs[np.argmax(np.abs(funcs), axis=0), np.arange(funcs.shape[1])] < 0
    funcs[:, flip] *= -1.0
    return np.clip(evals[::-1], 0.0, None), funcs


@dataclass(frozen=True)
class TpcaResult:
    """Tangent principal component analysis of an SRD sample.

    With n draws on p grid points it holds ``min(n, p)`` eigenpairs.
    ``eigenvalues`` are sorted nonincreasing and scaled so they approximate
    the continuum covariance operator's spectrum; ``eigenvectors`` holds one
    grid eigenfunction per column, orthonormal under the trapezoidal inner
    product.  Each eigenfunction's sign is fixed so its largest-magnitude
    entry is positive (earliest such entry on ties).  The grid is
    ``mean.grid``; the sample and its size stay with the caller.
    """

    mean: Srd
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)


def tangent_pca(
    samples,
    eps1: float = KARCHER_EPS1,
    eps2: float = KARCHER_STEP,
    max_iter: int = KARCHER_MAX_ITER,
) -> TpcaResult:
    """Principal modes of variation of a sample of SRDs.

    Computes the intrinsic mean, lifts every sample to the tangent space at
    that mean, and eigendecomposes the sample covariance there, through the
    same Karcher pass and spectrum routine as ``summarize_sample``.  The
    tangents are scaled by the square roots of the quadrature weights before
    the (symmetric) eigendecomposition, which is what makes the eigenvalues
    quadrature-consistent and the eigenvectors orthonormal in the
    trapezoidal inner product.
    """
    if len(samples) < 2:
        raise InsufficientSamplesError("tangent PCA needs at least two SRDs")
    fit = _karcher_fit(samples, eps1, eps2, max_iter)
    fit.warn_unconverged("; principal modes may be unreliable")
    evals, funcs = _tangent_spectrum(fit, vectors=True)
    mean = Srd(fit.grid, fit.mean)
    return TpcaResult(mean=mean, eigenvalues=evals, eigenvectors=funcs)
