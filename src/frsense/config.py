"""Experiment configuration files: INI blocks to a validated run plan.

The file format is the stdlib configparser dialect.  Hierarchy is spelled
with dotted section names, so a Dirichlet-process run with a Beta centering
measure looks like::

    [dataset]
    path = galaxies.txt
    transform = none

    [model]
    kind = dp

    [model.baseline]
    alpha = 5.0

    [model.baseline.g0]
    kind = beta
    a = 5.0
    b = 5.0

    [sweep]
    preset = alpha

    [mcmc]
    seed = 7

Every block except [dataset], [model] and [sweep] is optional.  A [run]
section is ignored so that a result manifest, which is a config echo plus
run info, can be loaded straight back as a config.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass

from .errors import ConfigError
from .grid import DEFAULT_N_POINTS, MIN_POINTS
from .samplers import BetaBase, McmcControl, UniformBase
from .sweep import _MODELS, MODEL_TAGS, SweepSpec, get_config_value, sweep_grid_presets

__all__ = [
    "ExperimentConfig",
    "GeometryOptions",
    "OutputOptions",
    "apply_preset",
    "dump_config",
    "load_config",
]

TRANSFORMS = ("none", "log")
AGGREGATES = ("first", "mean")

_KNOWN_SECTIONS = (
    "dataset",
    "model",
    "model.baseline",
    "model.baseline.g0",
    "sweep",
    "mcmc",
    "geometry",
    "output",
    "run",
)


@dataclass(frozen=True)
class GeometryOptions:
    """Grid resolution and Karcher-mean iteration controls."""

    n_points: int = DEFAULT_N_POINTS
    karcher_eps1: float = 1e-6
    karcher_step: float = 0.5
    karcher_max_iter: int = 200

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise ConfigError(
                "CONFIG_BAD_GEOMETRY",
                f"n_points must be >= {MIN_POINTS}, got {self.n_points}",
            )
        if not self.karcher_eps1 > 0.0:
            raise ConfigError(
                "CONFIG_BAD_GEOMETRY",
                f"karcher_eps1 must be positive, got {self.karcher_eps1}",
            )
        if not 0.0 < self.karcher_step <= 1.0:
            raise ConfigError(
                "CONFIG_BAD_GEOMETRY",
                f"karcher_step must lie in (0, 1], got {self.karcher_step}",
            )
        if self.karcher_max_iter < 1:
            raise ConfigError(
                "CONFIG_BAD_GEOMETRY",
                f"karcher_max_iter must be >= 1, got {self.karcher_max_iter}",
            )


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "results"
    densities: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep run needs, already validated."""

    dataset_path: str
    transform: str
    spec: SweepSpec
    aggregate: str
    geometry: GeometryOptions
    output: OutputOptions

    def __post_init__(self):
        # A summary has min(n_samples, n_points) eigenvalues; SweepSpec
        # already requires n_samples > d_components.
        if self.spec.d_components > self.geometry.n_points:
            raise ConfigError(
                "CONFIG_BAD_COMPONENTS",
                f"d_components={self.spec.d_components} exceeds the "
                f"{self.geometry.n_points} grid points",
            )


class _Block:
    """One INI section with typed, consume-once key access."""

    def __init__(self, name: str, raw: dict, unknown_code: str = "CONFIG_UNKNOWN_KEY"):
        self.name = name
        self.raw = dict(raw)
        self.unknown_code = unknown_code

    def _take(self, key, default):
        if key in self.raw:
            return self.raw.pop(key)
        if default is not _REQUIRED:
            return default
        raise ConfigError(
            "CONFIG_MISSING_KEY", f"[{self.name}] is missing required key {key!r}"
        )

    def _bad(self, key, text, expected):
        return ConfigError(
            "CONFIG_BAD_VALUE",
            f"[{self.name}] {key} = {text!r}: expected {expected}",
        )

    def take_str(self, key, default=None, choices=None):
        text = self._take(key, default)
        if text is None:
            return None
        if choices is not None and text not in choices:
            raise self._bad(key, text, "one of " + ", ".join(choices))
        return text

    def take_float(self, key, default=None):
        text = self._take(key, default)
        if not isinstance(text, str):
            return text
        try:
            return float(text)
        except ValueError:
            raise self._bad(key, text, "a number") from None

    def take_int(self, key, default=None):
        text = self._take(key, default)
        if not isinstance(text, str):
            return text
        try:
            return int(text)
        except ValueError:
            raise self._bad(key, text, "an integer") from None

    def take_bool(self, key, default=None):
        text = self._take(key, default)
        if not isinstance(text, str):
            return text
        lowered = text.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise self._bad(key, text, "a boolean (true/false)")

    def take_float_list(self, key, default=None):
        text = self._take(key, default)
        if not isinstance(text, str):
            return text
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        try:
            return tuple(float(p) for p in parts)
        except ValueError:
            raise self._bad(key, text, "a comma-separated list of numbers") from None

    def finish(self):
        if self.raw:
            keys = ", ".join(sorted(self.raw))
            raise ConfigError(
                self.unknown_code, f"unknown key(s) in [{self.name}]: {keys}"
            )


_REQUIRED = object()


def _read_sections(path: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError("CONFIG_PARSE", f"{path}: {exc}") from exc
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    unknown = sorted(set(sections) - set(_KNOWN_SECTIONS))
    if unknown:
        raise ConfigError(
            "CONFIG_UNKNOWN_KEY", "unknown section(s): " + ", ".join(unknown)
        )
    for required in ("dataset", "model", "sweep"):
        if required not in sections:
            raise ConfigError(
                "CONFIG_MISSING_KEY", f"config needs a [{required}] section"
            )
    return sections


def _build_g0(sections):
    if "model.baseline.g0" not in sections:
        return UniformBase()
    block = _Block("model.baseline.g0", sections["model.baseline.g0"], "CONFIG_BAD_PARAM")
    kind = block.take_str("kind", choices=("uniform", "beta"), default=_REQUIRED)
    if kind == "uniform":
        block.finish()
        return UniformBase()
    a = block.take_float("a", default=_REQUIRED)
    b = block.take_float("b", default=_REQUIRED)
    block.finish()
    try:
        return BetaBase(a, b)
    except ValueError as exc:
        raise ConfigError("CONFIG_BAD_VALUE", str(exc)) from exc


def _build_baseline(kind: str, sections):
    cls = _MODELS[kind][0]
    block = _Block(
        "model.baseline", sections.get("model.baseline", {}), "CONFIG_BAD_PARAM"
    )
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name == "g0":
            continue
        if f.name not in block.raw:
            continue
        # A field whose default is an integer stays one when read from text.
        if isinstance(f.default, int):
            kwargs[f.name] = block.take_int(f.name)
        else:
            kwargs[f.name] = block.take_float(f.name)
    block.finish()
    if kind == "dp":
        kwargs["g0"] = _build_g0(sections)
    elif "model.baseline.g0" in sections:
        raise ConfigError(
            "CONFIG_BAD_PARAM",
            f"[model.baseline.g0] only applies to the dp model, not {kind!r}",
        )
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("CONFIG_BAD_VALUE", str(exc)) from exc


def _resnap(values, baseline: float):
    """Move the grid point nearest to the baseline exactly onto it."""
    vals = list(values)
    idx = min(range(len(vals)), key=lambda i: abs(vals[i] - baseline))
    vals[idx] = baseline
    out = tuple(vals)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(
            "CONFIG_BAD_GRID",
            f"baseline value {baseline!r} cannot be snapped onto the preset grid",
        )
    return out


def _build_sweep(kind: str, baseline, sections) -> tuple:
    block = _Block("sweep", sections["sweep"])
    preset_name = block.take_str("preset")
    parameter = block.take_str("parameter")
    values = block.take_float_list("values")
    replicates = block.take_int("replicates")
    band_values = block.take_float_list("band_values")
    d_components = block.take_int("d_components")
    aggregate = block.take_str("aggregate", default="first", choices=AGGREGATES)
    block.finish()

    if preset_name is not None and values is not None:
        raise ConfigError(
            "CONFIG_BAD_GRID", "[sweep] takes either values or preset, not both"
        )
    if preset_name is not None:
        if parameter is not None and parameter != preset_name:
            raise ConfigError(
                "CONFIG_BAD_PRESET",
                f"preset {preset_name!r} conflicts with parameter {parameter!r}",
            )
        matches = [
            t for t in sweep_grid_presets(kind) if t.parameter == preset_name
        ]
        if not matches:
            names = ", ".join(t.parameter for t in sweep_grid_presets(kind))
            raise ConfigError(
                "CONFIG_BAD_PRESET",
                f"model {kind!r} has no preset {preset_name!r} (available: {names})",
            )
        template = matches[0]
        parameter = template.parameter
        base_val = get_config_value(baseline, parameter)
        values = template.values
        if base_val not in values:
            values = _resnap(values, base_val)
        if band_values is None:
            band_values = tuple(
                dict.fromkeys((values[0], base_val, values[-1]))
            )
        if replicates is None:
            replicates = template.replicates
        if d_components is None:
            d_components = template.d_components
    else:
        if values is None:
            raise ConfigError(
                "CONFIG_BAD_GRID", "[sweep] needs either a values list or a preset"
            )
        if parameter is None:
            raise ConfigError(
                "CONFIG_MISSING_KEY",
                "[sweep] needs a parameter name when values are given explicitly",
            )

    spec_kwargs = dict(
        model=kind,
        baseline=baseline,
        parameter=parameter,
        values=values,
    )
    if replicates is not None:
        spec_kwargs["replicates"] = replicates
    if band_values is not None:
        spec_kwargs["band_values"] = band_values
    if d_components is not None:
        spec_kwargs["d_components"] = d_components
    return spec_kwargs, aggregate


def apply_preset(config: ExperimentConfig, preset_name: str) -> ExperimentConfig:
    """Swap the sweep selection for a named preset ladder.

    Keeps the baseline model, chain controls, aggregate and everything else;
    only parameter, values, replicates, band values and component count are
    taken from the preset (resnapped onto the configured baseline).
    """
    spec_kwargs, _ = _build_sweep(
        config.spec.model,
        config.spec.baseline,
        {"sweep": {"preset": preset_name}},
    )
    spec = SweepSpec(mcmc=config.spec.mcmc, **spec_kwargs)
    return dataclasses.replace(config, spec=spec)


def _build_mcmc(sections) -> McmcControl:
    block = _Block("mcmc", sections.get("mcmc", {}))
    defaults = McmcControl()
    kwargs = dict(
        n_samples=block.take_int("n_samples", defaults.n_samples),
        burn_in=block.take_int("burn_in", defaults.burn_in),
        thin=block.take_int("thin", defaults.thin),
        seed=block.take_int("seed", defaults.seed),
    )
    block.finish()
    try:
        return McmcControl(**kwargs)
    except ValueError as exc:
        raise ConfigError("CONFIG_BAD_MCMC", str(exc)) from exc


def _build_geometry(sections) -> GeometryOptions:
    block = _Block("geometry", sections.get("geometry", {}))
    defaults = GeometryOptions()
    options = GeometryOptions(
        n_points=block.take_int("n_points", defaults.n_points),
        karcher_eps1=block.take_float("karcher_eps1", defaults.karcher_eps1),
        karcher_step=block.take_float("karcher_step", defaults.karcher_step),
        karcher_max_iter=block.take_int(
            "karcher_max_iter", defaults.karcher_max_iter
        ),
    )
    block.finish()
    return options


def _build_output(sections) -> OutputOptions:
    block = _Block("output", sections.get("output", {}))
    options = OutputOptions(
        directory=block.take_str("directory", "results"),
        densities=block.take_bool("densities", False),
    )
    block.finish()
    return options


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config (or manifest) file.

    Relative dataset paths are resolved against the config file's own
    directory, so a config can be run from anywhere.  The dataset file must
    exist, but it is not read here.
    """
    sections = _read_sections(path)

    dataset = _Block("dataset", sections["dataset"])
    data_path = dataset.take_str("path", default=_REQUIRED)
    transform = dataset.take_str("transform", default="none", choices=TRANSFORMS)
    dataset.finish()
    if not os.path.isabs(data_path):
        data_path = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), data_path)
        )
    if not os.path.isfile(data_path):
        raise ConfigError("CONFIG_BAD_PATH", f"dataset file not found: {data_path}")

    model = _Block("model", sections["model"])
    kind = model.take_str("kind", default=_REQUIRED, choices=MODEL_TAGS)
    model.finish()

    baseline = _build_baseline(kind, sections)
    spec_kwargs, aggregate = _build_sweep(kind, baseline, sections)
    spec = SweepSpec(mcmc=_build_mcmc(sections), **spec_kwargs)
    geometry = _build_geometry(sections)
    output = _build_output(sections)
    return ExperimentConfig(
        dataset_path=data_path,
        transform=transform,
        spec=spec,
        aggregate=aggregate,
        geometry=geometry,
        output=output,
    )


def _scalar_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: ExperimentConfig) -> dict:
    """Full config echo as {section: {key: text}}, every field explicit.

    repr-formatted floats survive the round trip exactly, so loading the
    dump reproduces an identical ExperimentConfig.
    """
    spec = config.spec
    sections = {
        "dataset": {
            "path": config.dataset_path,
            "transform": config.transform,
        },
        "model": {"kind": spec.model},
        "model.baseline": {},
    }
    baseline = sections["model.baseline"]
    for f in dataclasses.fields(spec.baseline):
        value = getattr(spec.baseline, f.name)
        if f.name == "g0":
            g0 = {"kind": "uniform"}
            if isinstance(value, BetaBase):
                g0 = {"kind": "beta", "a": repr(value.a), "b": repr(value.b)}
            sections["model.baseline.g0"] = g0
        elif value is not None:
            baseline[f.name] = _scalar_text(value)
    sections["sweep"] = {
        "parameter": spec.parameter,
        "values": ", ".join(repr(v) for v in spec.values),
        "replicates": str(spec.replicates),
        "band_values": ", ".join(repr(v) for v in spec.band_values),
        "d_components": str(spec.d_components),
        "aggregate": config.aggregate,
    }
    sections["mcmc"] = {
        "n_samples": str(spec.mcmc.n_samples),
        "burn_in": str(spec.mcmc.burn_in),
        "thin": str(spec.mcmc.thin),
        "seed": str(spec.mcmc.seed),
    }
    sections["geometry"] = {
        "n_points": str(config.geometry.n_points),
        "karcher_eps1": repr(config.geometry.karcher_eps1),
        "karcher_step": repr(config.geometry.karcher_step),
        "karcher_max_iter": str(config.geometry.karcher_max_iter),
    }
    sections["output"] = {
        "directory": config.output.directory,
        "densities": _scalar_text(config.output.densities),
    }
    return sections
