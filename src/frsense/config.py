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
from .sweep import (
    _LADDERS,
    _MODELS,
    AGGREGATES,
    MODEL_TAGS,
    SweepSpec,
    _band_marks,
    _preset_values,
    get_config_value,
)

__all__ = [
    "ExperimentConfig",
    "GeometryOptions",
    "OutputOptions",
    "apply_preset",
    "dump_config",
    "load_config",
]

TRANSFORMS = ("none", "log")

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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


def _parse_floats(text: str) -> tuple:
    return tuple(float(p) for p in text.split(",") if p.strip())


#: Parser and expected-value wording for each type a key can be read as.
_PARSERS = {
    bool: (_parse_bool, "a boolean (true/false)"),
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (_parse_floats, "a comma-separated list of numbers"),
}

_REQUIRED = object()


class _Block:
    """One INI section with typed, consume-once key access."""

    def __init__(self, sections: dict, name: str, unknown_code: str = "CONFIG_UNKNOWN_KEY"):
        self.name = name
        self.raw = dict(sections.get(name, {}))
        self.unknown_code = unknown_code

    def take(self, key, kind=str, default=None, choices=None):
        """Pop ``key`` and parse it as ``kind``; ``default`` if it is unset."""
        if key in self.raw:
            text = self.raw.pop(key)
        elif default is _REQUIRED:
            raise ConfigError(
                "CONFIG_MISSING_KEY", f"[{self.name}] is missing required key {key!r}"
            )
        else:
            return default
        if kind is str:
            if choices is not None and text not in choices:
                raise self._bad(key, text, "one of " + ", ".join(choices))
            return text
        parse, expected = _PARSERS[kind]
        try:
            return parse(text)
        except ValueError:
            raise self._bad(key, text, expected) from None

    def _bad(self, key, text, expected):
        return ConfigError(
            "CONFIG_BAD_VALUE", f"[{self.name}] {key} = {text!r}: expected {expected}"
        )

    def finish(self):
        if self.raw:
            keys = ", ".join(sorted(self.raw))
            raise ConfigError(
                self.unknown_code, f"unknown key(s) in [{self.name}]: {keys}"
            )


def _take_fields(cls, block: _Block, skip=()) -> dict:
    """Read the fields of ``cls`` that ``block`` sets, then reject its other keys.

    Each is parsed by the type of its field's default, as float where that
    is neither bool, int nor str (so dp's ``bandwidth = None`` reads a float).
    """
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in block.raw and f.name not in skip:
            kind = type(f.default)
            kwargs[f.name] = block.take(f.name, kind if kind in (bool, int, str) else float)
    block.finish()
    return kwargs


def _build_section(cls, block: _Block, bad_code: str, **fixed):
    """Build ``cls`` from the keys ``block`` sets and the ``fixed`` fields.

    A ``ValueError`` from ``cls`` becomes ``ConfigError(bad_code)``; a
    ``ConfigError`` it raises keeps its own code.
    """
    kwargs = _take_fields(cls, block, skip=fixed)
    try:
        return cls(**kwargs, **fixed)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(bad_code, str(exc)) from exc


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
    block = _Block(sections, "model.baseline.g0", "CONFIG_BAD_PARAM")
    kind = block.take("kind", default=_REQUIRED, choices=("uniform", "beta"))
    if kind == "uniform":
        block.finish()
        return UniformBase()
    a = block.take("a", float, _REQUIRED)
    b = block.take("b", float, _REQUIRED)
    block.finish()
    try:
        return BetaBase(a, b)
    except ValueError as exc:
        raise ConfigError("CONFIG_BAD_VALUE", str(exc)) from exc


def _build_baseline(kind: str, sections):
    cls = _MODELS[kind][0]
    block = _Block(sections, "model.baseline", "CONFIG_BAD_PARAM")
    # The baseline's own keys are read and checked before its base measure;
    # that spends the block, so _build_section below only builds.
    fields = _take_fields(cls, block, skip=("g0",))
    if kind == "dp":
        fields["g0"] = _build_g0(sections)
    elif "model.baseline.g0" in sections:
        raise ConfigError(
            "CONFIG_BAD_PARAM",
            f"[model.baseline.g0] only applies to the dp model, not {kind!r}",
        )
    return _build_section(cls, block, "CONFIG_BAD_VALUE", **fields)


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
    block = _Block(sections, "sweep")
    preset_name = block.take("preset")
    parameter = block.take("parameter")
    values = block.take("values", tuple)
    replicates = block.take("replicates", int)
    band_values = block.take("band_values", tuple)
    d_components = block.take("d_components", int)
    aggregate = block.take("aggregate", default="first", choices=AGGREGATES)
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
        ladders = _LADDERS[kind]
        if preset_name not in ladders:
            raise ConfigError(
                "CONFIG_BAD_PRESET",
                f"model {kind!r} has no preset {preset_name!r} "
                f"(available: {', '.join(ladders)})",
            )
        parameter = preset_name
        base_val = get_config_value(baseline, parameter)
        values = _preset_values(kind, parameter)
        if base_val not in values:
            values = _resnap(values, base_val)
        if band_values is None:
            band_values = _band_marks(values, base_val)
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

    # Keys left unset take SweepSpec's defaults.
    given = dict(replicates=replicates, band_values=band_values, d_components=d_components)
    spec_kwargs = {key: value for key, value in given.items() if value is not None}
    spec_kwargs.update(model=kind, baseline=baseline, parameter=parameter, values=values)
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


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config (or manifest) file.

    Relative dataset paths are resolved against the config file's own
    directory, so a config can be run from anywhere.  The dataset file must
    exist, but it is not read here.
    """
    sections = _read_sections(path)

    dataset = _Block(sections, "dataset")
    data_path = dataset.take("path", default=_REQUIRED)
    transform = dataset.take("transform", default="none", choices=TRANSFORMS)
    dataset.finish()
    if not os.path.isabs(data_path):
        data_path = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(path)), data_path)
        )
    if not os.path.isfile(data_path):
        raise ConfigError("CONFIG_BAD_PATH", f"dataset file not found: {data_path}")

    model = _Block(sections, "model")
    kind = model.take("kind", default=_REQUIRED, choices=MODEL_TAGS)
    model.finish()

    baseline = _build_baseline(kind, sections)
    spec_kwargs, aggregate = _build_sweep(kind, baseline, sections)
    mcmc = _build_section(McmcControl, _Block(sections, "mcmc"), "CONFIG_BAD_MCMC")
    spec = SweepSpec(mcmc=mcmc, **spec_kwargs)
    geometry = _build_section(
        GeometryOptions, _Block(sections, "geometry"), "CONFIG_BAD_GEOMETRY"
    )
    output = _build_section(OutputOptions, _Block(sections, "output"), "CONFIG_BAD_VALUE")
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


def _fields_text(obj) -> dict:
    """Every set scalar field of a config dataclass as {name: text}."""
    return {
        f.name: _scalar_text(value)
        for f in dataclasses.fields(obj)
        if (value := getattr(obj, f.name)) is not None
        and not dataclasses.is_dataclass(value)
    }


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
        "model.baseline": _fields_text(spec.baseline),
    }
    g0 = getattr(spec.baseline, "g0", None)
    if g0 is not None:
        kind = "beta" if isinstance(g0, BetaBase) else "uniform"
        sections["model.baseline.g0"] = {"kind": kind, **_fields_text(g0)}
    sections["sweep"] = {
        "parameter": spec.parameter,
        "values": ", ".join(repr(v) for v in spec.values),
        "replicates": str(spec.replicates),
        "band_values": ", ".join(repr(v) for v in spec.band_values),
        "d_components": str(spec.d_components),
        "aggregate": config.aggregate,
    }
    sections["mcmc"] = _fields_text(spec.mcmc)
    sections["geometry"] = _fields_text(config.geometry)
    sections["output"] = _fields_text(config.output)
    return sections
