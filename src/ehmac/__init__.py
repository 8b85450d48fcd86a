"""Stationary measures, throughput bounds and power policies for
energy-harvesting multiple-access transmitters with compound-Poisson
battery dynamics."""

from .arrivals import HarvestParams, PacketDistribution, sample_arrivals, survival
from .bounds import upper_bound_finite, upper_bound_infinite
from .errors import (ConfigError, DomainError, EhmacError, MomentRangeError,
                     NonAdmissibleTrajectoryError, NumericOverflowError,
                     SolverDivergenceError, UsageError)
from .measures import (PolicyGrid, StationaryMeasure, constant_policy, crossing_rates,
                       level_crossing_residual, mean_power, measure_closed_form,
                       measure_volterra, policy_from_function)
from .rates import RateFunction, mixture_rate_inequality_check, rate, rate_deriv
from .simulate import SimConfig, TrajectoryStats, crossing_balance, simulate
from .solver import (SolveReport, SolverConfig, best_k_search,
                     constant_policy_stats, el_ode_solve, el_residual,
                     solve_mac_gauss_seidel, solve_symmetric_mac)
from .throughput import (ExactRateMoments, Node, PhiMoments, SystemState,
                         infinite_battery_lower_bound, phi_moments, sum_throughput)

__version__ = "0.1.0"

__all__ = [
    "HarvestParams", "PacketDistribution", "sample_arrivals", "survival",
    "upper_bound_finite", "upper_bound_infinite",
    "EhmacError", "DomainError", "UsageError",
    "NumericOverflowError", "NonAdmissibleTrajectoryError", "MomentRangeError",
    "SolverDivergenceError", "ConfigError",
    "PolicyGrid", "StationaryMeasure", "constant_policy", "policy_from_function",
    "measure_closed_form", "measure_volterra", "mean_power",
    "crossing_rates", "level_crossing_residual",
    "RateFunction", "rate", "rate_deriv", "mixture_rate_inequality_check",
    "SimConfig", "TrajectoryStats", "simulate", "crossing_balance",
    "SolverConfig", "SolveReport", "el_ode_solve", "el_residual", "solve_symmetric_mac",
    "solve_mac_gauss_seidel", "constant_policy_stats", "best_k_search",
    "Node", "SystemState", "PhiMoments", "ExactRateMoments", "phi_moments",
    "sum_throughput", "infinite_battery_lower_bound",
]
