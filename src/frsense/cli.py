"""Command line front end.

Subcommands::

    frsense sweep --config exp.ini [--out DIR] [--seed N] [--threads N] [--preset NAME]
    frsense validate-config --config exp.ini
    frsense geodesic --from a.csv --to b.csv [--steps N] [--out FILE]
    frsense mean --densities draws.csv --out mean.csv
    frsense pca --densities draws.csv --out DIR [--components N]

Exit status is 0 on success, 1 for anything wrong with the inputs, and 2
for an internal failure.  Input problems print a single stderr line that
starts with a stable machine-readable code, e.g. ``CONFIG_BAD_PARAM: ...``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

import numpy as np

from . import __version__
from .config import apply_preset, load_config
from .errors import (
    ConfigError,
    DegenerateSampleError,
    EmptyDatasetError,
    FrsenseError,
    GridMismatchError,
    InsufficientSamplesError,
    InsufficientValuesError,
    InvalidSettingError,
    NonPositiveForLogError,
    ParseError,
    TruncationTooSmallError,
    UnknownModelError,
    UnknownParameterError,
)
from .geometry import _karcher_fit, geodesic_path, tangent_pca
from .grid import Grid, Srd, from_srd
from .io import (
    NUMBER_FORMAT,
    _write_lines,
    density_matrix_lines,
    load_dataset,
    read_density_matrix,
    write_bands_csv,
    write_density_matrix,
    write_manifest,
    write_sweep_csv,
)
from .sweep import run_sweep

__all__ = ["main"]

# Checked in order; the first match decides the stderr code.  ConfigError is
# handled separately because it carries its own code.
_ERROR_CODES = (
    (ParseError, "DATA_PARSE"),
    (NonPositiveForLogError, "DATA_NONPOSITIVE_LOG"),
    (EmptyDatasetError, "DATA_EMPTY"),
    (GridMismatchError, "DATA_GRID_MISMATCH"),
    (UnknownParameterError, "CONFIG_BAD_PARAM"),
    (UnknownModelError, "CONFIG_BAD_MODEL"),
    (TruncationTooSmallError, "SAMPLER_TRUNCATION"),
    (InvalidSettingError, "CONFIG_BAD_VALUE"),
    (DegenerateSampleError, "MEASURE_DEGENERATE"),
    (InsufficientSamplesError, "MEASURE_TOO_FEW_DRAWS"),
    (InsufficientValuesError, "MEASURE_TOO_FEW_VALUES"),
    (FrsenseError, "USER_ERROR"),
    (FileNotFoundError, "FILE_NOT_FOUND"),
    (OSError, "IO_ERROR"),
)


def _user_code(exc: Exception):
    if isinstance(exc, ConfigError):
        return exc.code
    for cls, code in _ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so bad flags map onto exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _steps_int(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("needs at least the two endpoints")
    return value


def _read_densities(path: str):
    rows = read_density_matrix(path)
    if not rows:
        raise ParseError(f"{path} has a header but no density rows", 2)
    return rows


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.preset is not None:
        config = apply_preset(config, args.preset)
    if args.seed is not None:
        try:
            mcmc = dataclasses.replace(config.spec.mcmc, seed=args.seed)
        except ValueError as exc:
            raise ConfigError("CONFIG_BAD_MCMC", str(exc)) from exc
        config = dataclasses.replace(
            config, spec=dataclasses.replace(config.spec, mcmc=mcmc)
        )
    # --out is a runtime destination only; the manifest echoes the config's
    # own directory so reruns from the manifest are destination-independent.
    out_dir = args.out if args.out is not None else config.output.directory

    data = load_dataset(config.dataset_path, config.transform)
    geo = config.geometry
    result = run_sweep(
        data,
        config.spec,
        aggregate=config.aggregate,
        n_workers=args.threads,
        grid=Grid(geo.n_points),
        karcher_eps1=geo.karcher_eps1,
        karcher_step=geo.karcher_step,
        karcher_max_iter=geo.karcher_max_iter,
    )

    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), result)
    write_bands_csv(os.path.join(out_dir, "bands.csv"), result)
    run_info = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "base_seed": result.base_seed,
        "n_workers": args.threads,
        "wall_clock_seconds": "%.3f" % result.wall_clock,
    }
    write_manifest(os.path.join(out_dir, "manifest.ini"), config, run_info)
    written = ["sweep.csv", "bands.csv", "manifest.ini"]
    if config.output.densities:
        write_density_matrix(
            os.path.join(out_dir, "densities.csv"), result.baseline_sample
        )
        written.append("densities.csv")

    spec = config.spec
    print(
        f"swept {spec.parameter} over {len(spec.values)} values, "
        f"{spec.replicates} replicate(s), model {spec.model}"
    )
    print(f"wrote {', '.join(written)} to {out_dir}")
    print(f"wall clock: {result.wall_clock:.1f} s")
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    data = load_dataset(config.dataset_path, config.transform)
    spec = config.spec
    print(f"config ok: {args.config}")
    print(f"dataset: {config.dataset_path} (n={data.n}, transform={config.transform})")
    print(f"model: {spec.model}, baseline {spec.baseline}")
    print(
        f"sweep: {spec.parameter} over {len(spec.values)} values in "
        f"[{min(spec.values):g}, {max(spec.values):g}], "
        f"baseline {spec.baseline_value:g}, {spec.replicates} replicate(s), "
        f"aggregate={config.aggregate}"
    )
    bands = ", ".join("%g" % v for v in spec.band_values)
    print(f"bands at: {bands if bands else 'none'}")
    mcmc = spec.mcmc
    if spec.model == "dp":
        # dp draws are iid stick-breaking realizations: no burn-in, no thinning.
        print(f"mcmc: keep {mcmc.n_samples} iid draws, seed {mcmc.seed}")
    else:
        print(
            f"mcmc: keep {mcmc.n_samples}, burn-in {mcmc.burn_in}, "
            f"thin {mcmc.thin}, seed {mcmc.seed}"
        )
    print(f"sampler runs: {spec.replicates * (len(spec.values) + 1)}")
    return 0


def _cmd_geodesic(args) -> int:
    start = _read_densities(args.from_path)[0]
    stop = _read_densities(args.to_path)[0]
    path = geodesic_path(start, stop, args.steps)
    if args.out is not None:
        write_density_matrix(args.out, path)
        print(f"wrote {args.steps} densities to {args.out}")
    else:
        for line in density_matrix_lines(path):
            print(line)
    return 0


def _cmd_mean(args) -> int:
    densities = _read_densities(args.densities)
    fit = _karcher_fit(densities)
    write_density_matrix(args.out, [from_srd(Srd(fit.grid, fit.mean))])
    print(f"n = {len(densities)}")
    print("karcher_variance = " + NUMBER_FORMAT % fit.variance)
    info = fit.info
    state = "converged" if info.converged else "did not converge"
    print(
        f"{state} after {info.n_iter} iteration(s), "
        f"gradient norm {info.grad_norm:.3e}"
    )
    return 0


def _cmd_pca(args) -> int:
    densities = _read_densities(args.densities)
    pca = tangent_pca(densities)
    total = float(pca.eigenvalues.sum())
    n_rows = pca.eigenvalues.size
    if args.components is not None:
        n_rows = min(args.components, n_rows)

    os.makedirs(args.out, exist_ok=True)
    lines = ["component,eigenvalue,cumulative_fraction"]
    running = 0.0
    for j in range(n_rows):
        running += float(pca.eigenvalues[j])
        fraction = running / total if total > 0.0 else 0.0
        lines.append(
            f"{j + 1},{NUMBER_FORMAT % pca.eigenvalues[j]},{NUMBER_FORMAT % fraction}"
        )
    _write_lines(os.path.join(args.out, "eigenvalues.csv"), lines)
    write_density_matrix(os.path.join(args.out, "mean.csv"), [from_srd(pca.mean)])

    covered = running / total if total > 0.0 else 0.0
    print(f"n = {len(densities)}, components written: {n_rows}")
    print(
        "leading eigenvalue " + NUMBER_FORMAT % pca.eigenvalues[0]
        + ", cumulative fraction " + NUMBER_FORMAT % covered
    )
    print(f"wrote eigenvalues.csv, mean.csv to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frsense",
        description="Geometric sensitivity analysis for nonparametric density models.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("sweep", help="run a perturbation sweep from a config file")
    p.add_argument("--config", required=True, metavar="INI")
    p.add_argument("--out", metavar="DIR", help="output directory (default: from the config)")
    p.add_argument("--seed", type=int, help="override the chain base seed")
    p.add_argument(
        "--threads", type=_positive_int, default=1, metavar="N",
        help="worker processes for the sweep's tasks (default: 1, no pool)",
    )
    p.add_argument("--preset", metavar="NAME", help="swap in a preset value ladder")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("validate-config", help="check a config and print the run plan")
    p.add_argument("--config", required=True, metavar="INI")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("geodesic", help="interpolate between two densities")
    p.add_argument("--from", dest="from_path", required=True, metavar="CSV")
    p.add_argument("--to", dest="to_path", required=True, metavar="CSV")
    p.add_argument("--steps", type=_steps_int, default=7, metavar="N")
    p.add_argument("--out", metavar="CSV", help="output file (stdout when omitted)")
    p.set_defaults(handler=_cmd_geodesic)

    p = sub.add_parser("mean", help="intrinsic mean of a density matrix")
    p.add_argument("--densities", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(handler=_cmd_mean)

    p = sub.add_parser("pca", help="principal modes of a density matrix")
    p.add_argument("--densities", required=True, metavar="CSV")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument(
        "--components", type=_positive_int, metavar="N",
        help="eigenvalue rows to write (default: all min(draws, grid points))",
    )
    p.set_defaults(handler=_cmd_pca)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"CLI_USAGE: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help/--version
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except Exception as exc:
        code = _user_code(exc)
        if code is not None:
            print(f"{code}: {exc}", file=sys.stderr)
            return 1
        print(f"INTERNAL: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
