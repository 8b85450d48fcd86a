"""Experiment configuration: flat key = value text with a schema version.

Every key can be overridden through the environment with the ``EHMAC_``
prefix (upper-cased key), so sweeps are scriptable without editing files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .solver import INIT_POLICIES

SCHEMA_VERSION = 1
ENV_PREFIX = "EHMAC_"


def _parse_float(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str):
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    return tuple(_parse_float(s) for s in items)


def _parse_str_list(text: str):
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


@dataclass
class ExperimentConfig:
    """Validated, typed view of one experiment description."""

    schema_version: int = SCHEMA_VERSION
    lam: float = 1.0
    zeta: float = 1.0
    n0: float = 1.0
    node_count: int = 2
    capacities: tuple = (3.0,)
    k_values: tuple = (0.0,)
    p0plus_values: tuple = (0.001,)
    init_policies: tuple = ("linear",)
    grid_n: int = 512
    theta_tol: float = 0.01
    max_outer: int = 60
    ode_substeps: int = 4
    divergence_tol: float = 0.15
    best_k: bool = False
    k_min: float = -1.0
    k_max: float = 0.0
    k_step: float = 0.01
    k_coarse: float = 0.05
    horizon: float = 1e5
    replications: int = 4
    seed: int = 0
    burn_in: float = 100.0
    level_probes: tuple = ()
    policy_file: str = ""
    policy_level: float = 0.0
    keep_history: bool = False
    workers: int = 1

    def validate(self) -> "ExperimentConfig":
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}; "
                              f"this build reads version {SCHEMA_VERSION}",
                              field="schema_version")
        checks = [
            ("lam", self.lam >= 0.0), ("zeta", self.zeta > 0.0),
            ("n0", self.n0 > 0.0), ("node_count", self.node_count >= 1),
            ("capacities", all(c > 0.0 for c in self.capacities)),
            ("p0plus_values", all(p > 0.0 for p in self.p0plus_values)),
            ("grid_n", self.grid_n >= 64),
            ("theta_tol", self.theta_tol > 0.0),
            ("max_outer", self.max_outer >= 1),
            ("ode_substeps", self.ode_substeps >= 1),
            ("init_policies", all(i in INIT_POLICIES for i in self.init_policies)),
            ("horizon", self.horizon > self.burn_in >= 0.0),
            ("replications", self.replications >= 1),
            ("workers", self.workers >= 1),
            ("k_step", self.k_step > 0.0),
            ("k_max", self.k_max > self.k_min),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {name}: {getattr(self, name)!r}",
                                  field=name)
        return self


_LIST_KEYS_STR = {"init_policies"}


def _coerce(name: str, raw: str):
    proto = getattr(ExperimentConfig(), name)
    if isinstance(proto, bool):  # bool before int: bool is an int subclass
        return _parse_bool(raw)
    if isinstance(proto, int):
        return int(raw.strip())
    if isinstance(proto, float):
        return _parse_float(raw)
    if isinstance(proto, tuple):
        return (_parse_str_list(raw) if name in _LIST_KEYS_STR
                else _parse_float_list(raw))
    return raw.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat ``key = value`` lines into a raw dict; unknown keys are errors."""
    known = {f.name for f in fields(ExperimentConfig)}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {body!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}", field=key)
        try:
            raw[key] = _coerce(key, value)
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {err}",
                              field=key) from err
    return raw


def apply_env_overrides(raw: dict, env=None) -> dict:
    env = os.environ if env is None else env
    out = dict(raw)
    for f in fields(ExperimentConfig):
        env_key = ENV_PREFIX + f.name.upper()
        if env_key in env:
            try:
                out[f.name] = _coerce(f.name, env[env_key])
            except (ValueError, ConfigError) as err:
                raise ConfigError(f"environment override {env_key}: {err}",
                                  field=f.name) from err
    return out


def load_config(path=None, preset: str | None = None, overrides: dict | None = None,
                env=None) -> ExperimentConfig:
    """Assemble a config from preset defaults, a file, and the environment."""
    raw: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: "
                              f"{', '.join(sorted(PRESETS))}", field="preset")
        raw.update(PRESETS[preset])
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            raw.update(parse_config_text(fh.read(), source=str(path)))
    raw = apply_env_overrides(raw, env=env)
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig(**raw)
    except TypeError as err:
        raise ConfigError(str(err)) from err
    return cfg.validate()


# Presets reproduce the headline experiment grids: the two utility tables and
# the three figure data sets.
PRESETS: dict = {
    "table1": dict(node_count=2, lam=1.0, zeta=1.0, n0=1.0,
                   capacities=(0.5, 1.0, 2.0, 3.0), k_values=(0.0,),
                   p0plus_values=(0.001, 0.01, 0.1, 1.0)),
    "table2": dict(node_count=2, lam=1.0, zeta=1.0, n0=1.0,
                   capacities=(0.5, 1.0, 2.0, 3.0), k_values=(0.5, 0.0, -0.5),
                   p0plus_values=(0.001,), best_k=True,
                   k_min=-1.0, k_max=0.0, k_step=0.01, k_coarse=0.05),
    "fig1": dict(node_count=2, lam=1.0, zeta=1.0, n0=1.0, capacities=(3.0,),
                 k_values=(0.0,), p0plus_values=(0.1,), keep_history=True),
    "fig2": dict(node_count=2, lam=1.0, zeta=1.0, n0=1.0, capacities=(3.0,),
                 k_values=(0.0,), p0plus_values=(0.001, 0.01, 0.1, 1.0)),
    "fig3": dict(node_count=2, lam=1.0, zeta=1.0, n0=1.0, capacities=(3.0,),
                 k_values=(0.0,), p0plus_values=(0.1,),
                 init_policies=("linear", "constant", "sqrt")),
}
