"""Run configuration: INI parsing with strict key validation.

The config file is a key-value file with sections; every key has a
default, unknown sections or keys are rejected with their full path,
and the effective (post-default) configuration can be echoed back out
for provenance.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .hdm import make_problem
from .trust_opt import TrustRegionConfig

__all__ = ["ConfigError", "RunConfig", "load_config", "echo_config"]


class ConfigError(ValueError):
    """A configuration value or key is invalid; the message names its path."""


_SCHEMA = {
    "run": {
        "method": ("sg-rom-tr", str),
        "problem": ("burgers-control", str),
        "seed": (2024, int),
    },
    "problem": {
        "n_u": (None, int),        # None: problem-specific default
        "n_mu": (8, int),
        "alpha": (0.1, float),
        "kappa_amp1": (0.5, float),
        "kappa_amp2": (0.25, float),
        "ref_level": (3, int),
    },
    "trust_region": {
        "eta1": (0.1, float),
        "eta2": (0.75, float),
        "gamma": (0.5, float),
        "eta": (0.1, float),
        "omega": (0.1, float),
        "kappa_phi": (1.0, float),
        "kappa_s": (1e-4, float),
        "r0": (1.0, float),
        "delta0": (1.0, float),
        "delta_max": (1000.0, float),
        "gtol": (1e-6, float),
        "max_iters": (30, int),
        "level_cap": (10, int),
        "theta_floor": (1e-6, float),
    },
    "indicators": {
        "beta1": (1.0, float),
        "beta3": (1.0, float),
        "beta4": (1.0, float),
        "alpha1": (1e-2, float),
        "alpha2": (1e-2, float),
    },
    "baseline": {
        "level": (5, int),
        "gtol": (math.nan, float),   # nan: match the adaptive run's result
        "max_iters": (100, int),
    },
    "validate": {
        "n_samples": (100, int),
        "fd_samples": (20, int),
        "fd_step": (1e-5, float),
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
        if run["seed"] < 0:
            raise ConfigError("run.seed must be nonnegative")
        t = self.values["trust_region"]
        ind = self.values["indicators"]
        try:
            self.tr = TrustRegionConfig(
                eta1=t["eta1"], eta2=t["eta2"], gamma=t["gamma"], eta=t["eta"],
                omega=t["omega"], kappa_phi=t["kappa_phi"], kappa_s=t["kappa_s"],
                r0=t["r0"], Delta0=t["delta0"], Delta_max=t["delta_max"],
                gtol=t["gtol"], max_iters=t["max_iters"],
                betas=(ind["beta1"], ind["beta3"], ind["beta4"]),
                alphas=(ind["alpha1"], ind["alpha2"]),
                level_cap=t["level_cap"], theta_floor=t["theta_floor"])
        except ValueError as exc:
            raise ConfigError(f"trust_region: {exc}") from exc
        p = self.values["problem"]
        if p["n_u"] is not None and p["n_u"] < 1:
            raise ConfigError("problem.n_u must be >= 1")
        if not p["alpha"] >= 0.0:
            raise ConfigError("problem.alpha must be >= 0")
        if not 1 <= self.values["baseline"]["level"] <= 6:
            raise ConfigError("baseline.level must be between 1 and 6")
        if self.values["validate"]["n_samples"] < 0:
            raise ConfigError("validate.n_samples must be >= 0")
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
    values = {sec: {k: default for k, (default, _) in keys.items()}
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
                default, typ = _SCHEMA[section][key]
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
            val = cfg.values[section][key]
            if val is None:
                val = ""
            elif isinstance(val, float):
                val = repr(val)
            out.write(f"{key} = {val}\n")
        out.write("\n")
    return out.getvalue()
