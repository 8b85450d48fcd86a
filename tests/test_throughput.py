import copy
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import ehmac as eh
import ehmac.solver as solver
import ehmac.throughput as th
from ehmac.errors import (DomainError, MomentRangeError, NonAdmissibleTrajectoryError,
                          NumericOverflowError, UsageError)
from ehmac.solver import _LOG_P_CAP, _SWITCH_FACTOR, _integrate


def constant_node(level=2.0, lam=1.0, zeta=1.0, span=12.0, n=256):
    hp = eh.HarvestParams(lam, zeta)
    pol = eh.constant_policy(level, span, n)
    meas = eh.measure_closed_form(pol, hp)
    return (hp, pol, meas)


def atom_node(capacity=2.0):
    """Degenerate node whose battery is (almost) always empty."""
    hp = eh.HarvestParams(0.0, 1.0, capacity)
    pol = eh.constant_policy(1.0, capacity, 64)
    meas = eh.measure_closed_form(pol, hp)
    return (hp, pol, meas)


def measure_from_g(grid, g, atom, lam, zeta):
    """Assemble (policy, measure) from the transformed density g and an atom.

    The release policy carrying this stationary law is lam * G / g with G the
    atom plus the running integral of g; the density is exp(-zeta x) g.
    """
    h = grid[1] - grid[0]
    big_g = atom + np.concatenate(([0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))))
    p = lam * big_g / g
    values = p.copy()
    values[0] = 0.0
    pol = eh.PolicyGrid(grid=grid, values=values, p0plus=float(p[0]))
    f = np.exp(-zeta * grid) * g
    masses = 0.5 * h * (f[:-1] + f[1:])
    meas = eh.StationaryMeasure(grid=grid, atom=atom, density=f, cell_masses=masses)
    return pol, meas


def random_feasible_g(rng, grid, zeta, lam):
    """Random feasible (atom, g) pair: atom + integral(e^{-zeta x} g) = 1."""
    raw = np.exp(rng.normal(0.0, 0.4, size=4))
    w = rng.uniform(0.5, 3.0, size=4)
    phase = rng.uniform(0.0, math.pi, size=4)
    g = raw[0] + raw[1] * grid + raw[2] * np.sin(w[0] * grid + phase[0]) ** 2 \
        + raw[3] * np.cos(w[1] * grid + phase[1]) ** 2
    g = np.maximum(g, 0.05)
    h = grid[1] - grid[0]
    f = np.exp(-zeta * grid) * g
    total = float(np.sum(0.5 * h * (f[:-1] + f[1:])))
    target = float(rng.uniform(0.3, 0.9))
    g = g * (target / total)
    return 1.0 - target, g


class TestSumThroughput:
    def test_two_constant_nodes(self, rf):
        nodes = (constant_node(), constant_node())
        state = eh.SystemState(nodes=nodes, rate=rf)
        expected = 2.0 * 0.25 * eh.rate(rf, 2.0) + 0.25 * eh.rate(rf, 4.0)
        assert eh.sum_throughput(state) == pytest.approx(expected, abs=1e-4)

    def test_all_atom_single_node(self, rf):
        state = eh.SystemState(nodes=(atom_node(),), rate=rf)
        assert eh.sum_throughput(state) == pytest.approx(0.0, abs=1e-12)

    def test_two_pure_atoms(self, rf):
        state = eh.SystemState(nodes=(atom_node(), atom_node()), rate=rf)
        assert eh.sum_throughput(state) == pytest.approx(0.0, abs=1e-12)

    def test_three_constant_nodes_analytic(self, rf):
        hp = eh.HarvestParams(1.0, 1.0, 8.0)
        pol = eh.constant_policy(2.0, 8.0, 128)
        meas = eh.measure_closed_form(pol, hp)
        a = meas.atom
        state = eh.SystemState(nodes=((hp, pol, meas),) * 3, rate=rf)
        expected = sum(math.comb(3, k) * a**(3 - k) * (1.0 - a)**k
                       * eh.rate(rf, 2.0 * k) for k in (1, 2, 3))
        assert eh.sum_throughput(state) == pytest.approx(expected, rel=1e-9)

    def test_four_finite_nodes_analytic(self, rf):
        # largest allowed expansion; finite battery keeps the grid small
        hp = eh.HarvestParams(1.0, 1.0, 6.0)
        pol = eh.constant_policy(2.0, 6.0, 48)
        meas = eh.measure_closed_form(pol, hp)
        a = meas.atom
        state = eh.SystemState(nodes=((hp, pol, meas),) * 4, rate=rf)
        expected = sum(math.comb(4, k) * a**(4 - k) * (1.0 - a)**k
                       * eh.rate(rf, 2.0 * k) for k in range(1, 5))
        assert eh.sum_throughput(state) == pytest.approx(expected, rel=1e-9)

    def test_four_node_blocks_stay_small(self, rf):
        # one transform per law, in blocks of t nodes: no block holds a
        # tensor of the laws (84 MiB for 130^3 points)
        hp = eh.HarvestParams(1.0, 1.0, 2.0)
        pol = eh.constant_policy(1.5, 2.0, 128)
        meas = eh.measure_closed_form(pol, hp)
        state = eh.SystemState(nodes=((hp, pol, meas),) * 4, rate=rf)
        tracemalloc.start()
        try:
            total = eh.sum_throughput(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        a = meas.atom
        expected = sum(math.comb(4, k) * a**(4 - k) * (1.0 - a)**k
                       * eh.rate(rf, 1.5 * k) for k in range(1, 5))
        assert total == pytest.approx(expected, rel=1e-9)

    def test_eight_finite_nodes_analytic(self, rf):
        # beyond the four nodes a tensor could hold: one transform per node
        hp = eh.HarvestParams(1.0, 1.0, 6.0)
        pol = eh.constant_policy(2.0, 6.0, 48)
        meas = eh.measure_closed_form(pol, hp)
        a = meas.atom
        state = eh.SystemState(nodes=((hp, pol, meas),) * 8, rate=rf)
        expected = sum(math.comb(8, k) * a**(8 - k) * (1.0 - a)**k
                       * eh.rate(rf, 2.0 * k) for k in range(1, 9))
        assert eh.sum_throughput(state) == pytest.approx(expected, rel=1e-9)

    def test_unnormalized_measure_rejected(self, rf):
        hp, pol, meas = constant_node()
        bad = eh.StationaryMeasure(grid=meas.grid, atom=meas.atom * 0.5,
                                   density=meas.density,
                                   cell_masses=meas.cell_masses)
        with pytest.raises(DomainError):
            eh.SystemState(nodes=((hp, pol, bad),), rate=rf)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, 0.25],
                             ids=["nan", "inf", "negative"])
    def test_bad_cell_mass_rejected(self, shift):
        # the negative case moves mass between two cells: the total stays 1
        _, _, meas = constant_node()
        masses = meas.cell_masses.copy()
        masses[3] -= shift
        masses[4] += shift
        with pytest.raises(DomainError, match="cell masses"):
            eh.StationaryMeasure(grid=meas.grid, atom=meas.atom,
                                 density=meas.density, cell_masses=masses)

    def test_nan_mass_written_later_rejected(self, rf):
        hp, pol, meas = constant_node()
        meas.cell_masses[3] = math.nan
        with pytest.raises(DomainError, match="not normalized"):
            eh.SystemState(nodes=((hp, pol, meas),), rate=rf)


class TestPhiMoments:
    def test_single_node_collapses_to_rate(self, rf):
        state = eh.SystemState(nodes=(constant_node(),), rate=rf)
        q = np.linspace(0.0, 6.0, 61)
        phi = eh.phi_moments(state, 0, q)
        assert np.allclose(phi.phi, eh.rate(rf, q))
        assert np.allclose(phi.dphi, eh.rate_deriv(rf, q, 1))
        assert np.allclose(phi.d2phi, eh.rate_deriv(rf, q, 2))

    def test_degenerate_other_node(self, rf):
        state = eh.SystemState(nodes=(constant_node(), atom_node()), rate=rf)
        q = np.linspace(0.0, 6.0, 61)
        phi = eh.phi_moments(state, 0, q)
        assert np.max(np.abs(phi.phi - eh.rate(rf, q))) < 1e-9

    def test_constant_other_node_value(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 6.0, 61))
        val, d1, d2 = phi.eval3(2.0)
        expected = 0.5 * eh.rate(rf, 2.0) + 0.5 * eh.rate(rf, 4.0)
        assert val == pytest.approx(expected, abs=2e-4)
        assert d1 > 0.0 and d2 < 0.0

    def test_tabulation_is_increasing_concave(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 20.0, 101))
        assert np.all(np.diff(phi.phi) > 0.0)
        assert np.all(phi.d2phi < 0.0)

    def test_derivative_consistent_with_tabulation(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        q = np.linspace(0.0, 10.0, 2001)
        phi = eh.phi_moments(state, 0, q)
        fd = np.gradient(phi.phi, q)
        assert np.max(np.abs(fd[1:-1] - phi.dphi[1:-1])) < 1e-4

    def test_out_of_range_query(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 5.0, 41))
        with pytest.raises(MomentRangeError):
            phi.eval3(6.0)
        extended = phi.extended(50.0)
        val, _, _ = extended.eval3(6.0)
        assert val > 0.0

    def test_bad_node_index(self, rf):
        state = eh.SystemState(nodes=(constant_node(),), rate=rf)
        with pytest.raises(UsageError):
            eh.phi_moments(state, 3, np.linspace(0.0, 5.0, 41))

    @pytest.mark.parametrize("field, edit, match", [
        # powers that differ in q but not in t = log1p(q)
        ("q", lambda a: np.r_[a[:3], 1e17, 1e17 + 16, 1e17 + 32], "log1p"),
        ("q", lambda a: np.r_[-0.5, a[1:]], "nonnegative"),
        ("q", lambda a: np.r_[a[:5], math.inf], "finite"),
        ("phi", lambda a: np.r_[a[:2], math.nan, a[3:]], "finite"),
        ("dphi", lambda a: np.r_[a[:4], math.inf, a[5:]], "finite"),
        ("d2phi", lambda a: np.r_[a[:1], -math.inf, a[2:]], "finite"),
        ("dphi", lambda a: np.r_[a[:3], 0.0, a[4:]], "positive"),
        ("d2phi", lambda a: np.r_[a[:5], 0.0], "concave"),
        ("dphi", lambda a: a[:5], "per knot"),
    ])
    def test_degenerate_table_rejected(self, field, edit, match):
        q = np.arange(6.0)
        table = {"q": q, "phi": np.log1p(q), "dphi": 1.0 / (1.0 + q),
                 "d2phi": -1.0 / (1.0 + q) ** 2}
        eh.PhiMoments(**table).eval3(2.5)
        table[field] = edit(table[field])
        with pytest.raises(DomainError, match=match):
            eh.PhiMoments(**table)

    def test_three_node_moments_analytic(self, rf):
        # two identical constant others: binomial mixture of shifted rates;
        # exercises the product of two transforms
        hp = eh.HarvestParams(1.0, 1.0, 6.0)
        pol = eh.constant_policy(2.0, 6.0, 96)
        meas = eh.measure_closed_form(pol, hp)
        a = meas.atom
        state = eh.SystemState(nodes=((hp, pol, meas),) * 3, rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 8.0, 81))
        q = phi.q
        expected = (a * a * eh.rate(rf, q)
                    + 2.0 * a * (1.0 - a) * eh.rate(rf, q + 2.0)
                    + (1.0 - a)**2 * eh.rate(rf, q + 4.0))
        assert np.max(np.abs(phi.phi - expected)) < 1e-9

    def test_six_node_moments_analytic(self, rf):
        # five identical constant others: binomial mixture of shifted rates
        hp = eh.HarvestParams(1.0, 1.0, 6.0)
        pol = eh.constant_policy(2.0, 6.0, 48)
        meas = eh.measure_closed_form(pol, hp)
        a = meas.atom
        state = eh.SystemState(nodes=((hp, pol, meas),) * 6, rate=rf)
        phi = eh.phi_moments(state, 2, np.linspace(0.0, 8.0, 41))
        mix = [math.comb(5, k) * a**(5 - k) * (1.0 - a)**k for k in range(6)]
        funcs = (lambda x: eh.rate(rf, x), lambda x: eh.rate_deriv(rf, x, 1),
                 lambda x: eh.rate_deriv(rf, x, 2))
        for got, f in zip((phi.phi, phi.dphi, phi.d2phi), funcs):
            want = sum(c * f(phi.q + 2.0 * k) for k, c in enumerate(mix))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_exact_moments_match_rate(self, rf):
        exact = eh.ExactRateMoments(rf)
        for p in (0.0, 0.3, 2.0, 50.0, 1e9):
            val, d1, d2 = exact.eval3(p)
            assert val == pytest.approx(eh.rate(rf, p), rel=1e-12)
            assert d1 == pytest.approx(eh.rate_deriv(rf, p, 1), rel=1e-12)
            assert d2 == pytest.approx(eh.rate_deriv(rf, p, 2), rel=1e-12)


class TestTailExtension:
    """``extended`` tabulates only the knots beyond the old range."""

    @pytest.mark.parametrize("others", [1, 2], ids=["two_nodes", "three_nodes"])
    def test_only_the_tail_is_tabulated(self, rf, others):
        nodes = (constant_node(n=64),) + tuple(
            constant_node(level=1.5 + k, n=32 + 16 * k) for k in range(others))
        state = eh.SystemState(nodes=nodes, rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 5.0, 41))
        seen = []
        tabulate = phi.provider

        def spy(knots):
            seen.append(np.array(knots))
            return tabulate(knots)

        phi.provider = spy
        ext = phi.extended(80.0)
        assert len(seen) == 1 and seen[0].min() > phi.qmax
        assert ext.qmax == 80.0
        n = phi.q.size
        np.testing.assert_array_equal(ext.q, np.concatenate((phi.q, seen[0])))
        for name in ("q", "phi", "dphi", "d2phi"):
            assert np.array_equal(getattr(ext, name)[:n], getattr(phi, name)), name
        fresh = eh.phi_moments(state, 0, ext.q)
        np.testing.assert_array_equal(fresh.q, ext.q)
        for name in ("phi", "dphi", "d2phi"):
            np.testing.assert_allclose(getattr(ext, name), getattr(fresh, name),
                                       rtol=1e-12, atol=0.0, err_msg=name)

    def test_nan_target_rejected(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 5.0, 41))
        with pytest.raises(DomainError) as err:
            phi.extended(math.nan)
        assert err.value.field == "new_qmax"


def sloped_node(lam, zeta, capacity, fn, n):
    hp = eh.HarvestParams(lam, zeta, capacity)
    pol = eh.policy_from_function(fn, capacity, n)
    return (hp, pol, eh.measure_closed_form(pol, hp))


class TestMomentOracle:
    """U = E phi_j(P_j) for every node j: the throughput and the moment
    tables are the same finite sum, taken by the kernel's two call sites."""

    @staticmethod
    def moment_mean(state, j):
        nd = state.nodes[j]
        p = nd.policy.density_side_on(nd.measure.grid)
        knots = np.unique(np.concatenate(([0.0], p)))
        if knots.size < 4:
            knots = np.concatenate((knots, knots[-1] + np.arange(1.0, 5.0 - knots.size)))
        phi = eh.phi_moments(state, j, knots)
        at_p = np.searchsorted(phi.q, p)
        assert phi.q[0] == 0.0 and np.array_equal(phi.q[at_p], p)
        return nd.measure.atom * phi.phi[0] + float(nd.measure.node_weights() @ phi.phi[at_p])

    @pytest.mark.parametrize("nodes", [
        (sloped_node(1.0, 1.0, 1.5, lambda x: 0.3 + 0.9 * x, 40),
         sloped_node(1.0, 1.0, 2.0, lambda x: 1.2, 32)),
        (sloped_node(1.0, 1.0, 1.0, lambda x: 0.4 + x * x, 24),
         sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 32),
         sloped_node(1.2, 0.8, 3.0, lambda x: 0.3 + math.sqrt(x), 28)),
        (sloped_node(1.0, 1.0, 1.0, lambda x: 0.4 + x * x, 24),
         sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 32),
         sloped_node(1.2, 0.8, 3.0, lambda x: 0.3 + math.sqrt(x), 28),
         sloped_node(0.9, 1.1, 1.5, lambda x: 0.6 + 0.3 * x, 20),
         sloped_node(1.5, 1.0, 2.5, lambda x: 1.0 + 0.2 * x * x, 36)),
    ], ids=["two_nodes", "three_asymmetric", "five_asymmetric"])
    def test_throughput_is_mean_moment_of_every_node(self, rf, nodes):
        self.check_every_node(rf, nodes)

    # tied states share one law among their nodes (see ``_node_laws``)
    @pytest.mark.parametrize("pattern", ["AA", "AAA", "AAAAA", "AAB", "ABA", "ABAAB"])
    def test_shared_laws(self, rf, pattern):
        laws = {"A": sloped_node(1.0, 1.0, 1.5, lambda x: 0.3 + 0.9 * x, 40),
                "B": sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 32)}
        nodes = tuple(laws[c] for c in pattern)
        state = eh.SystemState(nodes=nodes, rate=rf)
        assert_shared_as(th._node_laws(state), pattern)
        self.check_every_node(rf, nodes)

    def check_every_node(self, rf, nodes):
        state = eh.SystemState(nodes=nodes, rate=rf)
        total = eh.sum_throughput(state)
        for j in range(len(nodes)):
            assert self.moment_mean(state, j) == pytest.approx(total, rel=1e-12, abs=0.0)


def assert_shared_as(laws, pattern):
    """Nodes k and l hold the same ``_Law`` object exactly when pattern[k] == pattern[l]."""
    pattern = list(pattern)
    assert len(laws) == len(pattern)
    assert [[a is b for b in laws] for a in laws] == [[x == y for y in pattern]
                                                      for x in pattern]


RF = eh.RateFunction(1.0)
FUNCS = (lambda a: eh.rate(RF, a),
         lambda a: eh.rate_deriv(RF, a, 1),
         lambda a: eh.rate_deriv(RF, a, 2))


def brute_force_means(funcs, nodes, base):
    """math.fsum of f(base + sum of powers) over the product law, per f.

    The law is expanded over atom/density subsets: a node outside the subset
    sits at its atom (weight pi_0, power 0), a node inside it runs over its
    density's quadrature points.
    """
    parts = [(nd.measure.atom, nd.policy.density_side_on(nd.measure.grid).tolist(),
              nd.measure.node_weights().tolist()) for nd in nodes]
    sums = []
    for f in funcs:
        terms = []
        for inside in itertools.product((False, True), repeat=len(parts)):
            coef = math.prod(atom for (atom, _, _), on in zip(parts, inside) if not on)
            active = [zip(p, w) for (_, p, w), on in zip(parts, inside) if on]
            for point in itertools.product(*active):
                arg = base + math.fsum(pw[0] for pw in point)
                terms.append(coef * math.prod(pw[1] for pw in point) * f(arg))
        sums.append(math.fsum(terms))
    return sums


FOLD_CASES = [
    (sloped_node(1.0, 1.0, 1.5, lambda x: 0.3 + 0.9 * x, 6),
     sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 8)),
    (sloped_node(1.0, 1.0, 1.0, lambda x: 0.4 + x * x, 5),
     sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 6),
     sloped_node(1.2, 0.8, 3.0, lambda x: 0.3 + math.sqrt(x), 7)),
    (sloped_node(1.0, 1.0, 1.0, lambda x: 0.4 + x * x, 3),
     sloped_node(0.7, 1.3, 2.0, lambda x: 0.2 + 0.5 * x, 4),
     sloped_node(1.2, 0.8, 3.0, lambda x: 0.3 + math.sqrt(x), 3),
     sloped_node(0.9, 1.1, 1.5, lambda x: 0.6 + 0.3 * x, 4)),
]


class TestFoldedLawOracle:
    """The kernel's folded per-node laws against the atom/density subset
    expansion, summed term by term."""

    @pytest.mark.parametrize("chunk", [th._BLOCK, 7], ids=["one_block", "blocked"])
    @pytest.mark.parametrize("nodes", FOLD_CASES,
                             ids=["two_nodes", "three_nodes", "four_nodes"])
    def test_throughput_and_moments(self, nodes, chunk):
        atoms = [meas.atom for _, _, meas in nodes]
        assert len(set(atoms)) == len(atoms) and min(atoms) > 0.01
        # fresh copies: a law takes its block size when it is first built
        state = eh.SystemState(nodes=copy.deepcopy(nodes), rate=RF)
        knots = np.array([0.0, 0.3, 1.1, 2.5, 6.0])
        with mock.patch.object(th, "_BLOCK", chunk):
            total = eh.sum_throughput(state)
            tables = [eh.phi_moments(state, j, knots) for j in range(len(nodes))]
        (want,) = brute_force_means(FUNCS[:1], state.nodes, 0.0)
        assert total == pytest.approx(want, rel=1e-12, abs=0.0)
        for j, phi in enumerate(tables):
            others = state.nodes[:j] + state.nodes[j + 1:]
            want = np.array([brute_force_means(FUNCS, others, q) for q in knots])
            got = np.column_stack([phi.phi, phi.dphi, phi.d2phi])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def law_spec():
    """(lam, zeta, capacity, p(0+), slope, grid intervals) of a sloped node."""
    return st.tuples(st.floats(0.5, 1.5), st.floats(0.7, 1.3), st.floats(1.0, 3.0),
                     st.floats(0.1, 1.0), st.floats(0.0, 1.0), st.integers(6, 40))


@st.composite
def shared_patterns(draw):
    """Up to three law specs and, for one to five nodes, the law of each node,
    each law first used in law order."""
    pattern = []
    for _ in range(draw(st.integers(1, 5))):
        pattern.append(draw(st.integers(0, min(max(pattern, default=-1) + 1, 2))))
    return [draw(law_spec()) for _ in range(max(pattern) + 1)], pattern


SPEC_A, SPEC_B = (1.0, 1.0, 1.5, 0.3, 0.9, 40), (0.7, 1.3, 2.0, 0.2, 0.5, 32)


class TestSharedLaws:
    """Nodes holding one policy and one measure share one law's transforms,
    which round exactly as the same laws held by each node apart."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shared_patterns())
    @example(([SPEC_A], [0, 0]))
    @example(([SPEC_A, SPEC_B], [0, 0, 1]))
    @example(([SPEC_A, SPEC_B], [0, 1, 0]))
    # grouping the repeated laws (A, A, B, B) rounds differently here
    @example(([SPEC_A, SPEC_B], [0, 1, 0, 1]))
    @example(([SPEC_A], [0] * 5))
    def test_shared_equals_copies(self, case):
        specs, pattern = case
        laws = [sloped_node(lam, zeta, cap, lambda x, a=a, b=b: a + b * x, n)
                for lam, zeta, cap, a, b, n in specs]
        shared = eh.SystemState(nodes=tuple(laws[i] for i in pattern), rate=RF)
        copies = eh.SystemState(nodes=tuple(copy.deepcopy(laws[i]) for i in pattern),
                                rate=RF)
        m = len(pattern)
        assert_shared_as(th._node_laws(shared), pattern)
        assert_shared_as(th._node_laws(copies), range(m))
        assert eh.sum_throughput(shared) == eh.sum_throughput(copies)
        for a, b in zip(th._node_laws(shared), th._node_laws(copies)):
            for x, y in ((a.p, b.p), (a.w, b.w), (a.d, b.d)):
                assert np.array_equal(x, y)
        knots = np.linspace(0.0, 4.0, 9)
        for j in range(m):
            others = [i for k, i in enumerate(pattern) if k != j]
            assert_shared_as(th._node_laws(shared, skip=j), others)
            got, want = (eh.phi_moments(state, j, knots).extended(300.0)
                         for state in (shared, copies))
            for name in ("q", "phi", "dphi", "d2phi"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (j, name)


def count_blocks():
    """Patch ``_Law._block`` to record (law, first row, moment) per computed block."""
    computed, block = [], th._Law._block

    def counting(law, lo, moment):
        computed.append((law, lo, moment))  # keeps the law alive: ids stay unique
        return block(law, lo, moment)

    return computed, mock.patch.object(th._Law, "_block", counting)


class TestLawRows:
    """Each law computes its transform rows once, in fixed blocks, and a warm
    law gives the bits of a cold one."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(shared_patterns(), st.sampled_from([None, 0.5, 1e6]),
           st.sampled_from([th._BLOCK, 97, 1000]))
    @example(([SPEC_A, SPEC_B], [0, 1, 0]), 1e6, 97)
    @example(([SPEC_A, SPEC_B], [0, 1, 1]), 0.5, 97)
    def test_warm_equals_cold(self, case, warm_top, chunk):
        # warm_top None warms the rate rows alone, over the shortest t range
        # of any call; 0.5 and 1e6 warm both rows over a shorter and a longer
        # range than the moment calls below need
        specs, pattern = case
        laws = [sloped_node(lam, zeta, cap, lambda x, a=a, b=b: a + b * x, n)
                for lam, zeta, cap, a, b, n in specs]
        m = len(pattern)

        def outputs(state):
            tables = [eh.phi_moments(state, j, np.linspace(0.0, 4.0, 9)).extended(300.0)
                      for j in range(m)]
            return [eh.sum_throughput(state)] + [getattr(phi, name).tolist() for phi in tables
                                                 for name in ("q", "phi", "dphi", "d2phi")]

        with mock.patch.object(th, "_BLOCK", chunk):
            warm = eh.SystemState(nodes=tuple(laws[i] for i in pattern), rate=RF)
            cold = eh.SystemState(nodes=copy.deepcopy(warm.nodes), rate=RF)
            if warm_top is None:
                eh.sum_throughput(warm)
            else:
                for j in range(m):
                    eh.phi_moments(warm, j, np.linspace(0.0, warm_top, 5))
            assert all(law.d.size == 0 for law in th._node_laws(cold))
            assert outputs(warm) == outputs(cold)
        # the rows themselves, which roundoff in the last rows of a block
        # would change without moving the sums
        for a, b in zip(th._node_laws(warm), th._node_laws(cold)):
            assert a.d.size and b.d.size
            for x, y in ((a.d, b.d), (a.e, b.e)):
                k = min(x.size, y.size)
                assert np.array_equal(x[:k], y[:k])

    def test_one_sweep_computes_each_block_once(self, rf):
        nodes = [eh.HarvestParams(1.0, 1.0, 1.0), eh.HarvestParams(1.5, 1.0, 1.7),
                 eh.HarvestParams(1.0, 1.5, 2.5)]
        cfg = eh.SolverConfig(p0plus=0.001, grid_n=64, max_outer=1)
        computed, patch = count_blocks()
        reads = []
        rows = th._Law.rows

        def reading(law, count, moments=False):
            reads.append(law)
            return rows(law, count, moments)

        solver._start.cache_clear()
        with patch, mock.patch.object(th._Law, "rows", reading):
            eh.solve_mac_gauss_seidel(nodes, rf, cfg)
        keys = [(id(law), lo, moment) for law, lo, moment in computed]
        assert keys and len(set(keys)) == len(keys)
        # and the rows are reused: far fewer laws than reads
        assert len({id(law) for law in reads}) < len(reads) / 2

    def test_extension_computes_only_new_blocks(self, rf):
        state = eh.SystemState(nodes=(constant_node(n=64), constant_node(level=1.5),
                                      constant_node(level=2.5, n=128)), rate=rf)
        phi = eh.phi_moments(state, 0, np.linspace(0.0, 5.0, 41))
        laws = th._node_laws(state, skip=0)
        held = {(id(law), moment): (law.e if moment else law.d).size
                for law in laws for moment in (False, True)}
        computed, patch = count_blocks()
        with patch:
            phi.extended(1e100)
        assert computed
        for law, lo, moment in computed:
            assert any(law is held_law for held_law in laws)
            assert lo >= held[id(law), moment]


@st.composite
def tensor_cases(draw):
    """Active-node powers and weights, a noise level, a scalar or array base,
    a block size."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    values = [st.lists(st.floats(lo, hi), min_size=k, max_size=k)
              for k in sizes for lo, hi in ((0.0, 50.0), (0.0, 2.0))]
    drawn = [np.array(draw(v)) for v in values]
    powers, weights = drawn[0::2], drawn[1::2]
    n0 = draw(st.sampled_from([0.5, 1.0, 3.0]))
    if draw(st.booleans()):
        base = draw(st.floats(0.0, 50.0))
    else:
        base = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=9)))
    elems = np.size(base) * math.prod(sizes)
    return powers, weights, n0, base, draw(st.integers(1, elems))


def ragged_case(sizes, bases, chunk, n0=1.0):
    """Evenly spaced powers and weights for the blocking examples below."""
    powers = [np.linspace(0.1 * k, 3.0 - k, n) for k, n in enumerate(sizes)]
    weights = [np.linspace(1.0 - 0.2 * k, 0.2 + 0.1 * k, n) for k, n in enumerate(sizes)]
    return powers, weights, n0, np.linspace(0.0, 2.0, bases), chunk


def tensor_sums(n0, powers, weights, base, moments=False):
    """``_tensor_sums`` over fresh laws of raw powers and weights."""
    laws = [th._Law(np.asarray(p, dtype=float) / n0, w) for p, w in zip(powers, weights)]
    return th._tensor_sums(n0, laws, base, moments=moments)


class TestTensorSums:
    """The transform kernel against a direct evaluation on the full tensor."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tensor_cases())
    # blocks of one t node; of two t nodes (13 // 5 points) with a ragged
    # last block; three nodes at a scalar base; four nodes
    @example(ragged_case((3, 3), 5, 7))
    @example(ragged_case((5, 3), 2, 13, n0=3.0))
    @example(([np.linspace(0.0, 1.0, 4), np.full(3, 0.5), np.arange(5.0)],
              [np.full(4, 0.25), np.ones(3), np.linspace(0.1, 0.9, 5)], 0.5, 0.7, 10))
    @example(ragged_case((3, 2, 2, 3), 3, 13, n0=0.5))
    # a law whose whole mass is one subnormal weight; a law of zero mass;
    # knots up to QMAX_CAP; two laws whose transforms are 1e-12 of their
    # mass at large t, where a transform taken as 1 + (L - 1) would cancel
    @example(([np.array([0.0, 2.0, 7.5])], [np.array([0.0, 0.0, 5e-324])], 1.0, 0.0, 1))
    @example(([np.array([0.5, 2.0]), np.array([1.0, 3.0])],
              [np.array([0.3, 0.7]), np.zeros(2)], 1.0, np.array([0.0, 1.0]), 4))
    @example(([np.linspace(0.0, 5.0, 4), np.array([0.0, 1.0, 30.0])],
              [np.full(4, 0.25), np.array([0.2, 0.5, 0.3])], 0.5,
              np.array([0.0, 1e3, 1e60, th.QMAX_CAP]), 64))
    @example(([np.array([0.0, 1e3])] * 2, [np.array([1e-6, 1.0])] * 2, 1.0,
              np.array([0.0, 2.0]), 1 << 14))
    def test_matches_full_tensor(self, case):
        powers, weights, n0, base, chunk = case
        with mock.patch.object(th, "_BLOCK", chunk):
            got = tensor_sums(n0, powers, weights, base, moments=True)
        rf = eh.RateFunction(n0)
        funcs = (lambda a: eh.rate(rf, a),
                 lambda a: eh.rate_deriv(rf, a, 1),
                 lambda a: eh.rate_deriv(rf, a, 2))
        base = np.atleast_1d(np.asarray(base, dtype=float))
        args = sum(np.meshgrid(*powers, indexing="ij"))
        # each law's weights scaled by a power of two to a largest weight in
        # [0.5, 1), so that no term of a subnormal sum is rounded on its own
        shifts = [int(np.frexp(np.max(wk))[1]) for wk in weights]
        scaled = [np.ldexp(wk, -s) for wk, s in zip(weights, shifts)]
        w = np.prod(np.meshgrid(*scaled, indexing="ij"), axis=0)
        assert got.shape == (len(funcs), base.size)
        for f, sums in zip(funcs, got):
            terms = [f(b + args) * w for b in base]
            want = np.ldexp([np.sum(t) for t in terms], sum(shifts))
            np.testing.assert_allclose(sums, want, rtol=1e-12, atol=0.0)
            exact = np.ldexp([math.fsum(t.ravel().tolist()) for t in terms], sum(shifts))
            np.testing.assert_allclose(sums, exact, rtol=1e-13, atol=0.0)
        with mock.patch.object(th, "_BLOCK", chunk):
            (rate_only,) = tensor_sums(n0, powers, weights, base)
        assert np.array_equal(rate_only, got[0])

    def test_negative_power_rejected(self):
        one = [np.array([0.0, 1.0])], [np.array([0.5, 0.5])]
        with pytest.raises(DomainError, match="nonnegative"):
            tensor_sums(1.0, *one, np.array([0.5, -1e-3]), moments=True)
        with pytest.raises(DomainError, match="nonnegative"):
            tensor_sums(1.0, [np.array([0.0, -1.0])], one[1], 0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                tensor_sums(1.0, [np.array([0.0, bad])], one[1], 0.0)
            with pytest.raises(DomainError, match="finite"):
                tensor_sums(1.0, *one, np.array([0.5, bad]), moments=True)

    def test_largest_total_power(self, rf):
        # the t nodes reach down to _T_FLOOR / x_max, so the total power x_max
        # (in units of n0) evaluates while _T_TOP x_max / _T_FLOOR is finite
        top = sys.float_info.max / th._T_TOP * th._T_FLOOR
        while th._T_TOP * math.nextafter(top, math.inf) / th._T_FLOOR < math.inf:
            top = math.nextafter(top, math.inf)
        while not th._T_TOP * top / th._T_FLOOR < math.inf:
            top = math.nextafter(top, 0.0)
        assert 4.4e288 < top < 4.5e288
        hp = eh.HarvestParams(1.0, 1.0, 1.0)

        def lone(level):
            pol = eh.constant_policy(level, 1.0, 64)
            return eh.SystemState(nodes=((hp, pol, eh.measure_closed_form(pol, hp)),), rate=rf)

        assert eh.sum_throughput(lone(4e288)) > 0.0
        assert eh.sum_throughput(lone(top)) > 0.0
        for level in (math.nextafter(top, math.inf), 5e288):
            with pytest.raises(NumericOverflowError, match="too large"):
                eh.sum_throughput(lone(level))

    def test_moment_knots_beyond_the_t_range(self, rf):
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        with pytest.raises(NumericOverflowError, match="too large"):
            eh.phi_moments(state, 0, np.geomspace(1e-3, 1e300, 50))

    def test_moment_knot_over_a_tiny_noise_level(self):
        # the laws' powers over n0 = 1e-300 are finite, a knot's is not; it
        # failed as a power that is not finite
        state = eh.SystemState(nodes=(constant_node(), constant_node()),
                               rate=eh.RateFunction(1e-300))
        with pytest.raises(NumericOverflowError, match="n0 = 1e-300"):
            eh.phi_moments(state, 0, np.array([0.0, 1e10]))


@st.composite
def moment_tables(draw):
    """phi_moments of a node facing one random constant-policy node."""
    hp = eh.HarvestParams(draw(st.floats(0.3, 3.0)), draw(st.floats(0.5, 2.0)))
    level = hp.mean_input_rate * draw(st.floats(1.1, 4.0))
    pol = eh.constant_policy(level, 12.0, 64)
    other = (hp, pol, eh.measure_closed_form(pol, hp))
    state = eh.SystemState(nodes=(constant_node(n=64), other),
                           rate=eh.RateFunction(1.0))
    n = draw(st.integers(4, 80))
    q0 = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    top = 10.0 ** draw(st.floats(0.5, 8.0))
    if draw(st.booleans()):
        knots = np.linspace(q0, top, n)
    else:
        knots = np.geomspace(max(q0, 1e-3), top, n)
    return eh.phi_moments(state, 0, knots)


class TestPhiEvaluator:
    """The plain-float evaluator against scipy's spline, in any query order."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(moment_tables(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
           st.randoms(use_true_random=False))
    def test_matches_scipy_in_any_order(self, phi, fractions, rnd):
        q = phi.q
        queries = q.tolist() + [float(q[0] + f * (q[-1] - q[0])) for f in fractions]
        queries = [min(max(p, float(q[0])), float(q[-1])) for p in queries]
        sorted_q = sorted(queries)
        shuffled = list(queries)
        rnd.shuffle(shuffled)
        results = [{p: phi.eval3(p) for p in order}
                   for order in (sorted_q, sorted_q[::-1], shuffled)]
        assert results[0] == results[1] == results[2]

        t = np.log1p(q)
        sp = [CubicSpline(t, y) for y in
              (phi.phi, np.log(phi.dphi), np.log(-phi.d2phi))]
        tq = np.log1p(np.array(sorted_q))
        want = np.column_stack([sp[0](tq), np.exp(sp[1](tq)), -np.exp(sp[2](tq))])
        got = np.array([results[0][p] for p in sorted_q])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

        outside = (np.nextafter(q[0], -np.inf), np.nextafter(q[-1], np.inf))
        for p in map(float, outside):
            with pytest.raises(MomentRangeError) as err:
                phi.eval3(p)
            assert err.value.argument == p

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(moment_tables())
    def test_live_segments_are_three_scipy_fits(self, phi):
        # the RK4 kernel evaluates these coefficients inline, so they must be
        # the three separate fits' bit for bit
        assert all(map(math.isnan, phi.live_segment()))  # nothing evaluated yet
        t = np.log1p(phi.q)
        fits = [CubicSpline(t, y).c for y in
                (phi.phi, np.log(phi.dphi), np.log(-phi.d2phi))]
        q = phi.q.tolist()
        for j in range(len(q) - 1):
            mid = 0.5 * (q[j] + q[j + 1])
            phi.eval3(mid)
            seg = phi.live_segment()
            assert seg[0] <= math.log1p(mid) < seg[1] and seg[2] == t[j]
            assert list(seg[3:]) == [c for fit in fits for c in fit[:, j].tolist()]


def _spline_table(x):
    x = np.array(x)
    return x, np.array([np.sin(x), np.exp(-x), np.square(x)])


# knots whose last dgtsv elimination step swaps rows (see
# test_examples_swap_rows_in_the_last_step)
_LAST_STEP_SWAPS = [_spline_table(x) for x in (
    [0.0, 1.0, 2.0, 12.0], [0.0, 1.0, 2.0, 3.0, 4.0, 14.0],
    np.log1p([0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 100.0]))]


@st.composite
def spline_tables(draw):
    """Strictly increasing knots with gaps over six decades, three value rows."""
    n = draw(st.integers(4, 40))
    gaps = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 2.0), min_size=n - 1,
                                          max_size=n - 1)))
    x = draw(st.floats(-50.0, 50.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    values = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    return x, np.array([draw(values) for _ in range(3)])


class TestSplineFit:
    """The in-house not-a-knot fit against scipy's CubicSpline, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @example(_LAST_STEP_SWAPS[0])
    @example(_LAST_STEP_SWAPS[1])
    @example(_LAST_STEP_SWAPS[2])
    @given(spline_tables())
    def test_matches_scipy_bit_for_bit(self, table):
        x, ys = table
        got = th._not_a_knot(x, ys)
        assert got.shape == (3, 4, x.size - 1)
        for row, y in zip(got, ys):
            want = CubicSpline(x, y).c
            assert row.tobytes() == want.tobytes()

    def test_examples_swap_rows_in_the_last_step(self):
        # LAPACK's own dgtsv on scipy's not-a-knot system: after a swap in the
        # last step, the next-to-last pivot is the last subdiagonal entry
        from scipy.linalg import lapack
        for x, _ in _LAST_STEP_SWAPS:
            dx = np.diff(x)
            diag = np.concatenate(([dx[1]], 2.0 * (dx[:-1] + dx[1:]), [dx[-2]]))
            upper = np.concatenate(([x[2] - x[0]], dx[:-1]))
            lower = np.concatenate((dx[1:], [x[-1] - x[-3]]))
            _, pivots, *_ = lapack.dgtsv(lower, diag, upper, np.zeros(x.size))
            assert pivots[-2] == lower[-1]

    @pytest.mark.parametrize("x, y", [
        ([0.0, 1.0, math.nan, 3.0], [0.0, 1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0, math.inf], [0.0, 1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, math.inf, 2.0, 3.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, math.nan, 3.0]),
        ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
        ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
    ])
    def test_rejects_what_scipy_rejects(self, x, y):
        with pytest.raises(ValueError):
            CubicSpline(x, y)
        with pytest.raises(DomainError):
            th._not_a_knot(x, [y])

    def test_needs_four_knots(self):
        with pytest.raises(DomainError, match="4 knots"):
            th._not_a_knot([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0]])


def _reference_integrate(phi, lam: float, zeta: float, k_const: float, x: np.ndarray,
                         substeps: int, p0plus: float) -> np.ndarray:
    """The RK4 loop before it kept the live spline segment in locals: one
    right-hand side and one ``eval3`` call per stage.  Kept as the oracle of
    ``solver._integrate``; like the kernel, it raises NumericOverflowError
    where a slope divides by zero."""
    eval3 = phi.eval3
    switch_hi = _SWITCH_FACTOR * max(1.0, lam / zeta, p0plus)
    switch_lo = 0.5 * switch_hi
    y_to_s = switch_hi * switch_hi
    s_to_y = math.log(switch_lo)
    xs = x.tolist()
    pos = xs[0]
    in_y = True

    def rhs(state):
        if in_y:
            if state <= 0.0:
                raise NonAdmissibleTrajectoryError(
                    f"release rate driven to zero near level {pos:.6g}", where=pos)
            p = math.sqrt(state)
            val, d1, d2 = eval3(p)
            return -2.0 * ((lam - zeta * p) * d1 + zeta * val + k_const) / d2
        if state > _LOG_P_CAP:
            raise NumericOverflowError(
                f"release rate exceeded the floating range near level {pos:.6g}",
                where=pos)
        p = math.exp(state)
        val, d1, d2 = eval3(p)
        return -((lam - zeta * p) * d1 + zeta * val + k_const) / (p * p * d2)

    out = [p0plus]
    state = p0plus * p0plus
    for i in range(len(xs) - 1):
        x0 = xs[i]
        hsub = (xs[i + 1] - x0) / substeps
        half = 0.5 * hsub
        sixth = hsub / 6.0
        for j in range(substeps):
            pos = x0 + j * hsub
            try:
                k1 = rhs(state)
                k2 = rhs(state + half * k1)
                k3 = rhs(state + half * k2)
                k4 = rhs(state + hsub * k3)
            except ZeroDivisionError:
                raise NumericOverflowError(
                    f"equation slope exceeded the floating range near level {pos:.6g}",
                    where=pos) from None
            state = state + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if in_y:
                if state <= 0.0:
                    raise NonAdmissibleTrajectoryError(
                        f"release rate driven to zero near level {pos:.6g}",
                        where=pos)
                if state > y_to_s:
                    in_y = False
                    state = 0.5 * math.log(state)
            else:
                if state > _LOG_P_CAP:
                    raise NumericOverflowError(
                        f"release rate exceeded the floating range near level "
                        f"{pos:.6g}", where=pos)
                if state < s_to_y:
                    in_y = True
                    state = math.exp(2.0 * state)
        out.append(math.sqrt(state) if in_y else math.exp(state))
    return np.array(out)


def _outcome(integrate, *args):
    """Every node as float.hex, or the error's type, message and location."""
    try:
        return [float(v).hex() for v in integrate(*args)]
    except (MomentRangeError, NonAdmissibleTrajectoryError, NumericOverflowError) as err:
        return (type(err), str(err), getattr(err, "where", None),
                getattr(err, "argument", None))


def _same_as_reference(phi, *args):
    want = _outcome(_reference_integrate, phi, *args)
    assert _outcome(_integrate, phi, *args) == want
    return want


def _short_table():
    """Moments of a node facing a constant-policy node, tabulated up to p = 10."""
    hp = eh.HarvestParams(1.0, 1.0)
    pol = eh.constant_policy(2.0, 12.0, 64)
    other = (hp, pol, eh.measure_closed_form(pol, hp))
    state = eh.SystemState(nodes=(constant_node(n=64), other), rate=eh.RateFunction(1.0))
    return eh.phi_moments(state, 0, np.linspace(0.0, 10.0, 20))


def _overshoot_table():
    """A table whose phi' is not phi's slope (the kernel never checks): with
    K = 2000 the equation has a stable point near p = 2000, above the y -> log p
    hand-over at 1000, which coarse steps overshoot to and fro."""
    q = np.concatenate(([0.0], np.geomspace(1e-3, 1e12, 200)))
    return eh.PhiMoments(q=q, phi=np.log1p(q), dphi=np.ones_like(q),
                         d2phi=-1.0 / (1.0 + q) ** 2)


# arguments of test_exact_moments (n0, lam, zeta, k, p0, cap, n, substeps) and
# test_tabulated_moments (phi, lam, zeta, k, log10 p0, cap, n, substeps) that
# reach the written-out y stages' branches (test_examples_reach_their_branches):
# driven to zero at stage 2, 3 or 4 of a step's second substep, a y stage after
# the first beyond the table, and y -> log p -> y round trips
LATE_ZERO = {2: (1.0, 1.0, 1.0, -0.7, 1.0, 1.0, 3, 2),
             3: (0.5, 1.6, 0.6, -1.98, 0.08, 3.0, 10, 2),
             4: (1.0, 1.0, 1.0, -0.6, 1.5, 3.0, 3, 2)}
LATE_RANGE = (_short_table(), 1.0, 1.0, 0.0, -1.0, 2.0, 9, 2)
ROUND_TRIP = (_overshoot_table(), 1.0, 1.0, 2000.0, -2.0, 0.5, 65, 4)
# K = 5000: a log p stage steps so far down that p = exp(arg) underflows to
# 0.0, and its slope divides by p**2 phi'' = -0.0
SLOPE_UNDERFLOW = (_overshoot_table(), 1.0, 1.0, 5000.0, -2.0, 0.5, 17, 4)


def _exact_args(n0, lam, zeta, k, p0, cap, n, substeps):
    phi = eh.ExactRateMoments(eh.RateFunction(n0))
    return phi, lam, zeta, k, np.linspace(0.0, cap, n), substeps, p0


def _tabulated_args(phi, lam, zeta, k, log_p0, cap, n, substeps):
    return phi, lam, zeta, k, np.linspace(0.0, cap, n), substeps, 10.0 ** log_p0


class TestIntegratorOracle:
    """The kernel's inline cubics give eval3's bits, and its errors."""

    # a y stage after the first queries beyond the table; y -> log p -> y;
    # a slope that divides by zero
    @example(*LATE_RANGE)
    @example(*ROUND_TRIP)
    @example(*SLOPE_UNDERFLOW)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(moment_tables(), st.floats(0.3, 3.0), st.floats(0.5, 2.0),
           st.floats(-1.5, 1.0), st.floats(-4.0, 1.0), st.floats(0.2, 4.0),
           st.integers(2, 40), st.integers(1, 4))
    def test_tabulated_moments(self, phi, lam, zeta, k, log_p0, cap, n, substeps):
        x = np.linspace(0.0, cap, n)
        _same_as_reference(phi, lam, zeta, k, x, substeps, 10.0 ** log_p0)

    # trajectories in y = p^2 only, handing over to log p, and overflowing;
    # driven to zero at a later stage
    @example(*LATE_ZERO[2])
    @example(*LATE_ZERO[3])
    @example(*LATE_ZERO[4])
    @example(1.0, 1.0, 1.0, -0.3, 0.05, 2.0, 129, 4)
    @example(1.0, 1.0, 1.0, 0.0, 0.1, 5.5, 129, 4)
    @example(1.0, 1.0, 1.0, 0.0, 0.1, 8.0, 129, 4)
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.5, 2.0), st.floats(0.3, 3.0), st.floats(0.5, 2.0),
           st.floats(-2.0, 2.0), st.floats(1e-4, 2.0), st.floats(0.2, 8.0),
           st.integers(2, 130), st.integers(1, 4))
    def test_exact_moments(self, n0, lam, zeta, k, p0, cap, n, substeps):
        phi = eh.ExactRateMoments(eh.RateFunction(n0))
        _same_as_reference(phi, lam, zeta, k, np.linspace(0.0, cap, n), substeps, p0)

    def test_examples_reach_their_branches(self):
        # each example replayed on the oracle with a recording eval3.  Every
        # stage queries once, so a stage that raises before its query leaves
        # a count that is not a multiple of 4 (4 per substep before it), and a
        # query that raises is the last one; stage 1 queries p of the state,
        # above the hand-over only in log p and below its lower end only in y
        def replay(phi, lam, zeta, k, x, substeps, p0):
            queries = []

            class Recorder:
                def eval3(self, p):
                    queries.append(p)
                    return phi.eval3(p)

            got = _outcome(_reference_integrate, Recorder(), lam, zeta, k, x, substeps, p0)
            return got, queries, _SWITCH_FACTOR * max(1.0, lam / zeta, p0)

        for stage, case in LATE_ZERO.items():
            got, queries, _ = replay(*_exact_args(*case))
            assert got[0] is NonAdmissibleTrajectoryError and got[2] > 0.0
            assert len(queries) % 4 == stage - 1
            assert (len(queries) // 4) % case[-1] == 1   # substep j = 1 of its step
        got, queries, switch = replay(*_tabulated_args(*LATE_RANGE))
        assert got[0] is MomentRangeError and got[3] == queries[-1]
        assert len(queries) > 4 and (len(queries) - 1) % 4 != 0
        assert max(queries[:-1]) < 0.5 * switch   # never left y
        got, queries, switch = replay(*_tabulated_args(*ROUND_TRIP))
        assert isinstance(got, list)
        stage1 = queries[::4]
        up = next(i for i, p in enumerate(stage1) if p > 1.01 * switch)
        assert min(stage1[up:]) < 0.99 * 0.5 * switch

    def test_slope_underflow_is_a_typed_error(self):
        got = _same_as_reference(*_tabulated_args(*SLOPE_UNDERFLOW))
        assert got[0] is NumericOverflowError and got[2] == 0.5 / 64
        assert "equation slope" in got[1]

    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_range_ends_are_exact(self, rf, end):
        # knots where log1p is flat: one ulp beyond either end has the end's t
        q = np.geomspace(1e5, 1e7, 40)
        state = eh.SystemState(nodes=(constant_node(), constant_node()), rate=rf)
        phi = eh.phi_moments(state, 0, q)
        q = q.tolist()
        edge, inner, k = (q[-1], q[-2], 20.0) if end == "top" else (q[0], q[1], -20.0)
        beyond = math.nextafter(edge, math.copysign(math.inf, k))
        assert math.log1p(beyond) == math.log1p(edge)
        # the first stage queries inside the end segment, so that segment is
        # live; the step is tuned so that the second stage queries the end
        # knot itself, which evaluates, or one ulp beyond it, which raises
        p0 = 0.5 * (edge + inner)
        val, d1, d2 = phi.eval3(p0)
        k1 = -2.0 * ((1.0 - p0) * d1 + val + k) / d2
        queries = []

        class Recorder:
            def eval3(self, p):
                queries.append(p)
                return phi.eval3(p)

        for target in (edge, beyond):
            half = (target * target - p0 * p0) / k1
            for _ in range(1000):
                p = math.sqrt(p0 * p0 + half * k1)
                if p == target:
                    break
                half = math.nextafter(half, math.copysign(math.inf, k1 * (target - p)))
            x = np.array([0.0, 2.0 * half])
            queries.clear()
            _outcome(_reference_integrate, Recorder(), 1.0, 1.0, k, x, 1, p0)
            assert queries[:2] == [p0, target]
            got = _same_as_reference(phi, 1.0, 1.0, k, x, 1, p0)
            if target == edge:
                assert isinstance(got, list) or got[3] != edge
            else:
                assert got[0] is MomentRangeError and got[3] == beyond


class TestCoordinateConcavity:
    def test_mixture_dominance(self, rf):
        # mixing one coordinate's feasible (atom, g) pair never hurts the
        # utility relative to the mixture of utilities
        rng = np.random.default_rng(31)
        grid = np.linspace(0.0, 2.0, 257)
        other = constant_node()
        lam = zeta = 1.0
        hp = eh.HarvestParams(lam, zeta, 2.0)
        failures = 0
        for _ in range(100):
            atom1, g1 = random_feasible_g(rng, grid, zeta, lam)
            atom2, g2 = random_feasible_g(rng, grid, zeta, lam)
            utils = {}
            for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
                atom_mix = alpha * atom1 + (1.0 - alpha) * atom2
                g_mix = alpha * g1 + (1.0 - alpha) * g2
                pol, meas = measure_from_g(grid, g_mix, atom_mix, lam, zeta)
                state = eh.SystemState(nodes=((hp, pol, meas), other), rate=rf)
                utils[alpha] = eh.sum_throughput(state)
            for alpha in (0.25, 0.5, 0.75):
                lower = alpha * utils[1.0] + (1.0 - alpha) * utils[0.0]
                if utils[alpha] < lower - 1e-6:
                    failures += 1
        assert failures == 0


class TestLowerBound:
    def test_single_node_unit_excess(self, rf):
        hp = eh.HarvestParams(1.0, 1.0)
        val = eh.infinite_battery_lower_bound([hp], 1.0, rf)
        assert val == pytest.approx(eh.rate(rf, 2.0) * 0.5)

    def test_meets_ceiling_as_excess_vanishes(self, rf):
        hps = [eh.HarvestParams(1.0, 1.0)] * 2
        val = eh.infinite_battery_lower_bound(hps, 1e-9, rf)
        assert val == pytest.approx(eh.upper_bound_infinite(hps, rf), abs=1e-6)

    def test_infinite_excess(self, rf):
        hps = [eh.HarvestParams(1.0, 1.0)]
        assert eh.infinite_battery_lower_bound(hps, math.inf, rf) == 0.0

    def test_nonpositive_excess_rejected(self, rf):
        with pytest.raises(DomainError):
            eh.infinite_battery_lower_bound([eh.HarvestParams(1.0, 1.0)], 0.0, rf)
