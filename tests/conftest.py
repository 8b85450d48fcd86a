import warnings

import pytest

import ehmac as eh

RF = eh.RateFunction(1.0)


@pytest.fixture(scope="session")
def rf():
    return RF


class SolveCache:
    """Memoized symmetric solves shared across acceptance criteria."""

    def __init__(self):
        self._cache = {}

    def get(self, capacity, k_const, p0plus, init="linear", theta_tol=0.01,
            grid_n=512, max_outer=60, ode_substeps=4):
        key = (capacity, k_const, p0plus, init, theta_tol, grid_n, max_outer, ode_substeps)
        if key not in self._cache:
            hp = eh.HarvestParams(1.0, 1.0, capacity)
            cfg = eh.SolverConfig(k_const=k_const, p0plus=p0plus, grid_n=grid_n,
                                  theta_tol=theta_tol, max_outer=max_outer,
                                  ode_substeps=ode_substeps, init_policy=init)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                self._cache[key] = eh.solve_symmetric_mac(2, hp, RF, cfg)
        return self._cache[key]


@pytest.fixture(scope="session")
def solves():
    return SolveCache()
