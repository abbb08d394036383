"""Run configuration: INI parsing with strict key validation.

The config file is a key-value file with sections; every key has a
default, unknown sections or keys are rejected with their full path,
values outside their range are rejected at load, and the effective
(post-default) configuration can be echoed back out for provenance.
The ``[trust_region]`` keys are the fields of
:class:`~sgromtr.trust_opt.TrustRegionConfig` in lower case, and the
``[indicators]`` keys the entries of its ``betas`` and ``alphas``, all
with its defaults.  Every float value must be finite, except the nan of
``baseline.gtol`` that stands for "match the adaptive run".
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .hdm import make_problem
from .trust_opt import TrustRegionConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "echo_config"]


class ConfigError(ValueError):
    """A configuration value or key is invalid; the message names its path."""


#: TrustRegionConfig tuple field -> its ``[indicators]`` keys, in order
_INDICATOR_KEYS = {"betas": ("beta1", "beta3", "beta4"),
                   "alphas": ("alpha1", "alpha2")}

#: ``[trust_region]`` key -> TrustRegionConfig field
_TR_FIELDS = {f.name.lower(): f for f in fields(TrustRegionConfig)
              if f.name not in _INDICATOR_KEYS}

#: section -> key -> (default, type[, lo, hi]): a value outside the
#: inclusive range ``[lo, hi]`` is a config error
_SCHEMA = {
    "run": {
        "method": ("sg-rom-tr", str),
        "problem": ("burgers-control", str),
        "seed": (2024, int, 0, math.inf),
    },
    "problem": {
        "n_u": (None, int, 1, math.inf),      # None: problem-specific default
        "n_mu": (8, int, 1, math.inf),
        "alpha": (0.1, float, 0.0, math.inf),
        "kappa_amp1": (0.5, float),          # with kappa_amp2: |a1| + |a2| < 1
        "kappa_amp2": (0.25, float),
        "ref_level": (3, int, 1, math.inf),
    },
    "trust_region": {key: (f.default, type(f.default))
                     for key, f in _TR_FIELDS.items()},
    "indicators": {key: (val, float) for name, keys in _INDICATOR_KEYS.items()
                   for key, val in zip(keys, getattr(TrustRegionConfig(), name))},
    "baseline": {
        "level": (5, int, 1, 6),
        "gtol": (math.nan, float, 0.0, math.inf),  # nan: match the adaptive run
        "max_iters": (100, int, 1, math.inf),
    },
    "validate": {
        "n_samples": (100, int, 0, math.inf),
        "fd_samples": (20, int, 1, math.inf),
    },
    "init": {
        "mu0": ("", str),            # space-separated; empty: zeros
    },
}

_METHODS = ("sg-rom-tr", "sg-iso")


@dataclass
class RunConfig:
    """Validated, effective configuration of one experiment."""

    values: dict
    tr: TrustRegionConfig = field(init=False)

    def __post_init__(self):
        run = self.values["run"]
        if run["method"] not in _METHODS:
            raise ConfigError(f"run.method must be one of {_METHODS}, "
                              f"got {run['method']!r}")
        for section, keys in _SCHEMA.items():
            for key, (default, typ, *bounds) in keys.items():
                val = self.values[section][key]
                # None and a nan default mark a value the run chooses
                if val is None or (val != val and default != default):
                    continue
                if typ is float and not math.isfinite(val):
                    raise ConfigError(f"{section}.{key} must be finite, "
                                      f"got {val!r}")
                if not bounds:
                    continue
                lo, hi = bounds
                if not lo <= val <= hi:
                    raise ConfigError(f"{section}.{key} must be in "
                                      f"[{lo}, {hi}], got {val!r}")
        p = self.values["problem"]
        if not abs(p["kappa_amp1"]) + abs(p["kappa_amp2"]) < 1.0:
            raise ConfigError("problem.kappa_amp1 and problem.kappa_amp2: "
                              "|kappa_amp1| + |kappa_amp2| must be < 1 to keep "
                              f"kappa positive, got {p['kappa_amp1']!r} and "
                              f"{p['kappa_amp2']!r}")
        t = self.values["trust_region"]
        ind = self.values["indicators"]
        try:
            self.tr = TrustRegionConfig(
                **{f.name: t[key] for key, f in _TR_FIELDS.items()},
                **{name: tuple(ind[key] for key in keys)
                   for name, keys in _INDICATOR_KEYS.items()})
        except ValueError as exc:
            raise ConfigError(f"trust_region: {exc}") from exc
        self.mu0(p["n_mu"])  # raises on a malformed init.mu0

    @property
    def method(self) -> str:
        return self.values["run"]["method"]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def make_problem(self):
        name = self.values["run"]["problem"]
        p = self.values["problem"]
        kwargs = {"n_mu": p["n_mu"], "alpha": p["alpha"]}
        if p["n_u"] is not None:
            kwargs["n_u"] = p["n_u"]
        if name == "linear-diffusion":
            kwargs["kappa_amp"] = (p["kappa_amp1"], p["kappa_amp2"])
        elif name == "burgers-control":
            kwargs["ref_level"] = p["ref_level"]
        try:
            return make_problem(name, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"run.problem: {exc}") from exc

    def mu0(self, n_mu: int) -> np.ndarray:
        text = self.values["init"]["mu0"].strip()
        if not text:
            return np.zeros(n_mu)
        try:
            vals = np.array([float(v) for v in text.split()])
        except ValueError as exc:
            raise ConfigError(f"init.mu0: cannot parse {text!r} as numbers") from exc
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"init.mu0 must be finite numbers, got {text!r}")
        if vals.shape != (n_mu,):
            raise ConfigError(f"init.mu0 must have {n_mu} entries, "
                              f"got {vals.shape[0]}")
        return vals


def _convert(section: str, key: str, raw: str, typ, default=None):
    if raw.strip() == "" and default is None and typ is not str:
        return None
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as "
                          f"{typ.__name__}") from exc


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file; ``None`` yields all defaults.

    ``overrides`` maps ``section.key`` paths to values (used for the
    command-line flags).
    """
    values = {sec: {k: spec[0] for k, spec in keys.items()}
              for sec, keys in _SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as f:
                parser.read_file(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                default, typ, *_ = _SCHEMA[section][key]
                values[section][key] = _convert(section, key, raw, typ, default)
    for dotted, val in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        values[section][key] = val
    return RunConfig(values)


def echo_config(cfg: RunConfig) -> str:
    """Effective configuration as INI text, deterministically ordered."""
    out = io.StringIO()
    for section in _SCHEMA:
        out.write(f"[{section}]\n")
        for key in _SCHEMA[section]:
            val = cfg.values[section][key]   # str() of a float is its repr()
            out.write(f"{key} = {'' if val is None else val}\n")
        out.write("\n")
    return out.getvalue()
