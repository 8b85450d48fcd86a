"""Experiment configuration: flat key = value text with a schema version.

Every key can be overridden through the environment with the ``EHMAC_``
prefix (upper-cased key), so sweeps are scriptable without editing files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .arrivals import HarvestParams
from .errors import ConfigError, DomainError, UsageError
from .rates import RateFunction
from .simulate import SimConfig
from .solver import SolverConfig, check_k_scan

SCHEMA_VERSION = 1
ENV_PREFIX = "EHMAC_"
WORKERS_CAP = 256  # worker processes a run may ask for; a pool forks them all at once


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_str_list(text: str):
    return tuple(s for s in (part.strip() for part in text.split(",")) if s)


def _parse_float_list(text: str):
    return tuple(float(s) for s in _parse_str_list(text))


# the typed field a rejected value came from, where its config key differs
_CONFIG_KEYS = {"capacity": "capacities", "p0plus": "p0plus_values",
                "init_policy": "init_policies", "k_const": "k_values",
                "step": "k_step", "coarse_step": "k_coarse"}


@dataclass
class ExperimentConfig:
    """Typed view of one experiment description.

    Each typed field is checked by the object it builds (``harvest``,
    ``rate_function``, ``solver_config``, ``sim_config``); ``validate`` builds
    them all and checks only the keys no such object reads.
    """

    schema_version: int = SCHEMA_VERSION
    lam: float = 1.0
    zeta: float = 1.0
    n0: float = RateFunction.n0
    node_count: int = 2
    capacities: tuple = (3.0,)
    k_values: tuple = (SolverConfig.k_const,)
    p0plus_values: tuple = (SolverConfig.p0plus,)
    init_policies: tuple = (SolverConfig.init_policy,)
    grid_n: int = SolverConfig.grid_n
    theta_tol: float = SolverConfig.theta_tol
    max_outer: int = SolverConfig.max_outer
    ode_substeps: int = SolverConfig.ode_substeps
    divergence_tol: float = SolverConfig.divergence_tol
    best_k: bool = False
    k_min: float = -1.0
    k_max: float = 0.0
    k_step: float = 0.01
    k_coarse: float = 0.05
    horizon: float = 1e5
    replications: int = 4
    seed: int = SimConfig.seed
    burn_in: float = 100.0
    level_probes: tuple = ()
    policy_file: str = ""
    policy_level: float = 0.0
    keep_history: bool = False
    workers: int = 1

    def harvest(self, capacity: float) -> HarvestParams:
        return HarvestParams(self.lam, self.zeta, capacity)

    def rate_function(self) -> RateFunction:
        return RateFunction(self.n0)

    def solver_config(self, p0: float, init: str, k: float = 0.0) -> SolverConfig:
        return SolverConfig(k_const=k, p0plus=p0, grid_n=self.grid_n,
                            theta_tol=self.theta_tol, max_outer=self.max_outer,
                            ode_substeps=self.ode_substeps, init_policy=init,
                            divergence_tol=self.divergence_tol)

    def sim_config(self) -> SimConfig:
        return SimConfig(horizon=self.horizon, replications=self.replications,
                         seed=self.seed, burn_in=self.burn_in, level_probes=self.level_probes)

    def validate(self) -> "ExperimentConfig":
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}; "
                              f"this build reads version {SCHEMA_VERSION}",
                              field="schema_version")
        checks = [("node_count", self.node_count >= 1), ("workers", self.workers >= 1),
                  ("policy_level", self.policy_level >= 0.0)]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for {name}: {getattr(self, name)!r}",
                                  field=name)
        if self.workers > WORKERS_CAP:
            raise ConfigError(f"invalid value for workers: {self.workers}, above the cap "
                              f"of {WORKERS_CAP}", field="workers")
        try:
            check_k_scan(self.k_min, self.k_max, self.k_step, self.k_coarse)
            self.rate_function()
            self.sim_config()
            # an empty list still has its shared fields checked
            for cap in self.capacities or (math.inf,):
                self.harvest(cap)
            for p0 in self.p0plus_values or (SolverConfig.p0plus,):
                for init in self.init_policies or (SolverConfig.init_policy,):
                    for k in self.k_values or (SolverConfig.k_const,):
                        self.solver_config(p0, init, k)
        except (DomainError, UsageError) as err:
            key = _CONFIG_KEYS.get(err.field, err.field)
            raise ConfigError(f"invalid value for {key}: {err}", field=key) from err
        return self


_LIST_KEYS_STR = {"init_policies"}


def _coerce(name: str, raw: str):
    proto = getattr(ExperimentConfig(), name)
    if isinstance(proto, bool):  # bool before int: bool is an int subclass
        return _parse_bool(raw)
    if isinstance(proto, int):
        return int(raw.strip())
    if isinstance(proto, float):
        return float(raw)
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
