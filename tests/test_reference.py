"""An exact lone-node reference for the solver, from a closed-form stationary weight.

With exponential packets the stationary law of a node under p has the
integrating factor w(x) = exp(int_0^x (lam / p - zeta)).  Along a solution of
the necessary-condition ODE, dx = q |phi''(q)| / N(q) dq with

    N(q) = (lam - zeta q) phi'(q) + zeta phi(q) + K,   N'(q) = (lam - zeta q) phi''(q),

so the exponent is -ln N and w(x(p)) = N0 / N(p) exactly, N0 = N(p(0+)).
With p(L) the root of x(p) = L and both integrals over [p(0+), p(L)]:

    atom  pi0 = 1 / D,   D = 1 + lam N0 int |phi''| / N**2 dq,
    utility J = [phi(0) + lam N0 int phi |phi''| / N**2 dq] / D.

For a lone node phi is the rate curve itself, so the sum-throughput U is J:
three one-dimensional integrals and one root, taken here with ``quad`` in
t = log q and ``brentq``.  The solver's own U and atom then have an exact
target, and their errors must keep the size and sign they have today.
"""

import math
import warnings

import pytest

import ehmac as eh

scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_optimize = pytest.importorskip("scipy.optimize")

LAM = ZETA = N0 = 1.0
P0 = 1e-3
_LN2 = math.log(2.0)


def _phi(q):
    return 0.5 * math.log1p(q / N0) / _LN2


def _dphi(q):
    return 0.5 / ((N0 + q) * _LN2)


def _abs_d2phi(q):
    return 0.5 / ((N0 + q) ** 2 * _LN2)


def _integral(g, p):
    """Integral of g(q) dq over [p(0+), p], taken in t = log q."""
    return scipy_integrate.quad(lambda t: g(math.exp(t)) * math.exp(t), math.log(P0),
                                math.log(p), epsrel=1e-13, epsabs=0.0, limit=500)[0]


def lone_node_reference(capacity, k):
    """(U, pi0, p(L)) of a lone node with the constant K, from the closed form."""
    def big_n(q):
        return (LAM - ZETA * q) * _dphi(q) + ZETA * _phi(q) + k

    def level(p):
        return _integral(lambda q: q * _abs_d2phi(q) / big_n(q), p)

    # N falls up to q = lam / zeta and rises beyond, so its first root above
    # p(0+), if any, lies below lam / zeta; x(p) grows without bound there
    turn = LAM / ZETA
    if big_n(turn) > 0.0:
        root = math.inf
    elif big_n(turn) == 0.0:
        root = turn
    else:
        root = scipy_optimize.brentq(big_n, P0, turn, xtol=1e-300, rtol=4.5e-16)
    # bracket p(L) below the root: halve the distance to it, or double
    # without one; a bracket past the root makes quad diverge
    lo, hi = P0, (0.5 * (P0 + root) if math.isfinite(root) else 2.0 * P0)
    while level(hi) < capacity:
        lo, hi = hi, (0.5 * (hi + root) if math.isfinite(root) else 2.0 * hi)
    p_top = scipy_optimize.brentq(lambda p: level(p) - capacity, lo, hi,
                                  xtol=1e-300, rtol=1e-15)
    n_start = big_n(P0)
    denom = 1.0 + LAM * n_start * _integral(lambda q: _abs_d2phi(q) / big_n(q) ** 2, p_top)
    numer = _phi(0.0) + LAM * n_start * _integral(
        lambda q: _phi(q) * _abs_d2phi(q) / big_n(q) ** 2, p_top)
    return numer / denom, 1.0 / denom, p_top


# (L, K): exact (U, pi0), then the solver's (U, atom) errors at grid 512 and 2048
CASES = {
    (0.5, -0.5): ((0.153617903100645, 0.1588979611),
                  {512: (-1.94e-6, -5.95e-5), 2048: (-2.2e-7, -1.3e-5)}),
    (1.0, 0.0): ((0.248369098101983, 0.4353899417),
                 {512: (-1.25e-5, 2.88e-4), 2048: (-1.5e-6, 6.7e-5)}),
    (3.0, -0.5): ((0.33391397217866, 0.01625369715),
                  {512: (-2.69e-6, -4.13e-5), 2048: (-3.0e-7, -9.5e-6)}),
    (3.0, 0.5): ((0.224975537394717, 0.5939370512),
                 {512: (-1.00e-4, 1.72e-3), 2048: (-1.2e-5, 4.1e-4)}),
}


@pytest.fixture(scope="module")
def references():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a quad that warns fails the reference
        return {case: lone_node_reference(*case) for case in CASES}


def _solve(capacity, k, grid_n):
    return eh.solve_symmetric_mac(1, eh.HarvestParams(LAM, ZETA, capacity),
                                  eh.RateFunction(N0),
                                  eh.SolverConfig(k_const=k, p0plus=P0, grid_n=grid_n))


@pytest.mark.parametrize("case", list(CASES), ids=[f"L{c[0]:g}_K{c[1]:g}" for c in CASES])
def test_reference_values(references, case):
    utility, atom = CASES[case][0]
    got_u, got_atom, _ = references[case]
    assert got_u == pytest.approx(utility, rel=0.0, abs=1e-14)
    assert got_atom == pytest.approx(atom, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("case", list(CASES), ids=[f"L{c[0]:g}_K{c[1]:g}" for c in CASES])
def test_solver_errors_keep_their_size_and_sign(references, case):
    utility, atom, _ = references[case]
    errors = {}
    for grid_n, table in CASES[case][1].items():
        report = _solve(*case, grid_n)
        got = (report.utility - utility, report.measures[0].atom - atom)
        for err, want in zip(got, table):
            assert 1.0 / 1.5 <= err / want <= 1.5, (grid_n, got, table)
        errors[grid_n] = got[0]
    # U converges at second order: a convergence-order check, not a tolerance
    assert errors[512] / errors[2048] >= 6.0


def test_top_rate_of_the_steepest_case(references):
    # at (3, 0.5) the policy climbs to p(L) = 1.08e8; the grid-512 solver's
    # top node is -6.9e-5 relative off it, and grid 2048 -8.0e-6
    p_top = references[(3.0, 0.5)][2]
    assert p_top == pytest.approx(1.0768e8, rel=1e-4)
    for grid_n, want in ((512, -6.9e-5), (2048, -8.0e-6)):
        got = _solve(3.0, 0.5, grid_n).policies[0].values[-1] / p_top - 1.0
        assert 1.0 / 1.5 <= got / want <= 1.5, (grid_n, got)
