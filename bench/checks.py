"""Output checks, with a small plain-numpy reference of the summary.

Each check returns a list of problems; an empty list means the output
passed.  Nothing here imports frsense: the reference recomputes what the
package should have produced from the same files.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Slack for floating-point comparisons of quantities recomputed here.
FLOAT_SLACK = 1e-9


def e_upper_bound(d: int) -> float:
    """Largest covariance-shape measure for d components (rank 1 vs flat)."""
    return math.sqrt(sum((1.0 - j / d) ** 2 for j in range(1, d)))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _rows(path: str, header: str) -> tuple[list, list]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    problems = []
    if lines[-1] != "":
        problems.append(f"{path}: no final newline")
    lines = lines[:-1]
    if not lines or lines[0] != header:
        problems.append(f"{path}: header is not {header!r}")
        return [], problems
    return [line.split(",") for line in lines[1:]], problems


def measure_problems(where: str, d_val: float, v_val: float, e_val: float, d: int) -> list:
    problems = []
    if not 0.0 <= d_val <= 0.5 * math.pi:
        problems.append(f"{where}: D={d_val!r} outside [0, pi/2]")
    if not math.isfinite(v_val):
        problems.append(f"{where}: V={v_val!r} is not finite")
    if not 0.0 <= e_val <= e_upper_bound(d) + FLOAT_SLACK:
        problems.append(f"{where}: E={e_val!r} outside [0, {e_upper_bound(d):.6g}]")
    return problems


def check_sweep_csv(path: str, values, d: int) -> list:
    rows, problems = _rows(path, "param_value,D,V,E")
    if len(rows) != len(values):
        return problems + [f"{path}: {len(rows)} rows for {len(values)} values"]
    for row, value in zip(rows, values):
        try:
            nums = [float(t) for t in row]
        except ValueError:
            problems.append(f"{path}: unparsable row {row}")
            continue
        if len(nums) != 4 or nums[0] != value:
            problems.append(f"{path}: row {row} does not start with {value!r}")
            continue
        problems += measure_problems(f"{path} at {value!r}", *nums[1:], d)
    return problems


def check_bands_csv(path: str, band_values, d: int) -> list:
    rows, problems = _rows(path, "param_value,measure,lo,hi")
    expected = [(v, m) for v in band_values for m in ("D", "V", "E")]
    if len(rows) != len(expected):
        return problems + [f"{path}: {len(rows)} rows, expected {len(expected)}"]
    for row, (value, measure) in zip(rows, expected):
        try:
            ok = len(row) == 4 and float(row[0]) == value and row[1] == measure
            lo, hi = float(row[2]), float(row[3])
        except (ValueError, IndexError):
            ok = False
        if not ok:
            problems.append(f"{path}: row {row} is not the {measure} band at {value!r}")
            continue
        if not lo <= hi:
            problems.append(f"{path}: band {row} has lo > hi")
        for bound in (lo, hi):
            probe = {"D": (bound, 0.0, 0.0), "V": (0.0, bound, 0.0), "E": (0.0, 0.0, bound)}
            problems += measure_problems(f"{path} {measure} band", *probe[measure], d)
    return problems


def trapezoid_weights(n_points: int) -> np.ndarray:
    w = np.full(n_points, 1.0 / (n_points - 1))
    w[[0, -1]] *= 0.5
    return w


def read_matrix(path: str) -> np.ndarray:
    """A density-matrix file as (abscissae, rows) in one array."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_density_csv(path: str, n_rows: int) -> list:
    data = read_matrix(path)
    x, rows = data[0], data[1:]
    problems = []
    if not np.allclose(x, np.linspace(0.0, 1.0, x.size), rtol=0.0, atol=1e-9):
        problems.append(f"{path}: header is not a uniform grid")
    if rows.shape[0] != n_rows:
        problems.append(f"{path}: {rows.shape[0]} rows, expected {n_rows}")
    if np.any(rows < 0.0):
        problems.append(f"{path}: negative density values")
    integrals = rows @ trapezoid_weights(x.size)
    if np.any(np.abs(integrals - 1.0) > 1e-8):
        problems.append(f"{path}: a row does not integrate to 1")
    return problems


# ------------------------------------------------------- summary reference


def srd_rows(rows: np.ndarray) -> np.ndarray:
    """Square roots renormalized to unit norm under the trapezoid rule."""
    w = trapezoid_weights(rows.shape[1])
    root = np.sqrt(rows)
    return root / np.sqrt((root**2) @ w)[:, None]


def _angles(psi: np.ndarray, base: np.ndarray, w: np.ndarray) -> np.ndarray:
    chord = np.sqrt(np.clip(((psi - base) ** 2) @ w, 0.0, 4.0))
    return 2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))


def log_rows(psi: np.ndarray, base: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sphere log map of every row at base."""
    cos = np.clip(psi @ (w * base), -1.0, 1.0)
    u = _angles(psi, base, w)
    factor = np.where(u < 1e-12, 1.0, u / np.sin(np.maximum(u, 1e-300)))
    return factor[:, None] * (psi - cos[:, None] * base)


def karcher_reference(psi: np.ndarray, eps1: float, eps2: float, max_iter: int):
    """Gradient descent from the normalized extrinsic mean.

    Returns the mean and the number of updates made before the gradient
    norm fell below eps1 (the package's stopping rule).
    """
    w = trapezoid_weights(psi.shape[1])
    mean = psi.mean(axis=0)
    mean /= math.sqrt(mean**2 @ w)
    for n_iter in range(max_iter + 1):
        grad = log_rows(psi, mean, w).mean(axis=0)
        theta = math.sqrt(grad**2 @ w)
        if theta < eps1 or n_iter == max_iter:
            return mean, n_iter
        step = eps2 * grad
        norm = eps2 * theta
        mean = np.cos(norm) * mean + (np.sin(norm) / norm) * step
        np.clip(mean, 0.0, None, out=mean)
        mean /= math.sqrt(mean**2 @ w)
    raise AssertionError("unreachable")


def reference_spectrum(psi: np.ndarray, mean: np.ndarray, d: int) -> np.ndarray:
    """Scaled cumulative top-d eigenvalues of the weighted tangent covariance."""
    w = trapezoid_weights(psi.shape[1])
    scaled = log_rows(psi, mean, w) * np.sqrt(w)[None, :]
    cov = scaled.T @ scaled / (psi.shape[0] - 1)
    top = np.clip(np.linalg.eigvalsh(cov)[::-1][:d], 0.0, None)
    omega = np.cumsum(top) / top.sum()
    omega[-1] = 1.0
    return omega


def check_summary(
    rows: np.ndarray, mean: np.ndarray, variance: float, omega: np.ndarray,
    *, eps1: float, eps2: float, max_iter: int, label: str,
) -> tuple[list, dict]:
    """Compare one package summary against the plain-numpy reference.

    The Karcher iteration stops once the mean tangent vector is shorter
    than eps1, so the returned mean must satisfy that rule when re-checked
    here, and it lies within about eps1 of the true fixed point (the
    Frechet functional's Hessian is close to the identity for samples this
    concentrated); 2 eps1 is the allowed distance.  The variance and the
    spectrum are recomputed at the package's own mean, so they must agree
    to rounding.
    """
    w = trapezoid_weights(rows.shape[1])
    psi = srd_rows(rows)
    problems = []
    grad = log_rows(psi, mean, w).mean(axis=0)
    gnorm = math.sqrt(grad**2 @ w)
    if not gnorm < eps1 + FLOAT_SLACK * eps1:
        problems.append(f"{label}: gradient norm {gnorm:.3e} at the mean breaks the stopping rule")
    ref_mean, _ = karcher_reference(psi, eps1 * 1e-3, eps2, 100 * max_iter)
    gap = float(_angles(mean[None, :], ref_mean, w)[0])
    if gap > 2.0 * eps1:
        problems.append(f"{label}: mean is {gap:.3e} from the fixed point (> 2 eps1)")
    ref_var = float(np.mean(_angles(psi, mean, w) ** 2))
    if abs(ref_var - variance) > FLOAT_SLACK * ref_var:
        problems.append(f"{label}: variance {variance!r} vs reference {ref_var!r}")
    ref_omega = reference_spectrum(psi, mean, omega.size)
    worst = float(np.max(np.abs(ref_omega - omega)))
    if worst > FLOAT_SLACK:
        problems.append(f"{label}: spectrum differs from eigvalsh by {worst:.3e}")
    _, iters = karcher_reference(psi, eps1, eps2, max_iter)
    return problems, {"karcher_variance": ref_var, "karcher_iters": iters, "fixed_point_gap": gap}
