import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import ehmac as eh
import ehmac.throughput as th
from ehmac.errors import CapacityError, DomainError, MomentRangeError, UsageError


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
        # blocks slice the leading half (two laws flattened), so none holds
        # the 130^3 tensor of three laws: 1.3 MiB measured, against 84 MiB
        # when one law led
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

    def test_node_cap(self, rf):
        nodes = tuple(constant_node(n=64) for _ in range(5))
        state = eh.SystemState(nodes=nodes, rate=rf)
        with pytest.raises(CapacityError):
            eh.sum_throughput(state)

    def test_unnormalized_measure_rejected(self, rf):
        hp, pol, meas = constant_node()
        bad = eh.StationaryMeasure(grid=meas.grid, atom=meas.atom * 0.5,
                                   density=meas.density,
                                   cell_masses=meas.cell_masses)
        with pytest.raises(DomainError):
            eh.SystemState(nodes=((hp, pol, bad),), rate=rf)


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

    def test_three_node_moments_analytic(self, rf):
        # two identical constant others: binomial mixture of shifted rates;
        # exercises the chunked tensor path
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
    ], ids=["two_nodes", "three_asymmetric"])
    def test_throughput_is_mean_moment_of_every_node(self, rf, nodes):
        state = eh.SystemState(nodes=nodes, rate=rf)
        total = eh.sum_throughput(state)
        for j in range(len(nodes)):
            assert self.moment_mean(state, j) == pytest.approx(total, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("chunk", [th._CHUNK, 7], ids=["one_block", "blocked"])
    @pytest.mark.parametrize("nodes", FOLD_CASES,
                             ids=["two_nodes", "three_nodes", "four_nodes"])
    def test_throughput_and_moments(self, nodes, chunk):
        atoms = [meas.atom for _, _, meas in nodes]
        assert len(set(atoms)) == len(atoms) and min(atoms) > 0.01
        state = eh.SystemState(nodes=nodes, rate=RF)
        knots = np.array([0.0, 0.3, 1.1, 2.5, 6.0])
        with mock.patch.object(th, "_CHUNK", chunk):
            total = eh.sum_throughput(state)
            tables = [eh.phi_moments(state, j, knots) for j in range(len(nodes))]
        (want,) = brute_force_means(FUNCS[:1], state.nodes, 0.0)
        assert total == pytest.approx(want, rel=1e-12, abs=0.0)
        for j, phi in enumerate(tables):
            others = state.nodes[:j] + state.nodes[j + 1:]
            want = np.array([brute_force_means(FUNCS, others, q) for q in knots])
            got = np.column_stack([phi.phi, phi.dphi, phi.d2phi])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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


class TestTensorSums:
    """The blocked kernel against a direct evaluation on the full tensor."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tensor_cases())
    # knot axis split 2 + 2 + 1 (one leading power per block); leading axis
    # split 2 + 2 + 1 (all knots per block); three nodes at a scalar base;
    # four nodes, whose leading half (two laws, 6 points) splits 1 x 6 and
    # whose knots split 2 + 1
    @example(ragged_case((3, 3), 5, 7))
    @example(ragged_case((5, 3), 2, 13, n0=3.0))
    @example(([np.linspace(0.0, 1.0, 4), np.full(3, 0.5), np.arange(5.0)],
              [np.full(4, 0.25), np.ones(3), np.linspace(0.1, 0.9, 5)], 0.5, 0.7, 10))
    @example(ragged_case((3, 2, 2, 3), 3, 13, n0=0.5))
    def test_matches_full_tensor(self, case):
        powers, weights, n0, base, chunk = case
        with mock.patch.object(th, "_CHUNK", chunk):
            got = th._tensor_sums(n0, powers, weights, base, moments=True)
        rf = eh.RateFunction(n0)
        funcs = (lambda a: eh.rate(rf, a),
                 lambda a: eh.rate_deriv(rf, a, 1),
                 lambda a: eh.rate_deriv(rf, a, 2))
        base = np.atleast_1d(np.asarray(base, dtype=float))
        args = sum(np.meshgrid(*powers, indexing="ij"))
        w = np.prod(np.meshgrid(*weights, indexing="ij"), axis=0)
        assert got.shape == (len(funcs), base.size)
        for f, sums in zip(funcs, got):
            terms = [f(b + args) * w for b in base]
            want = np.array([np.sum(t) for t in terms])
            np.testing.assert_allclose(sums, want, rtol=1e-12, atol=0.0)
            exact = np.array([math.fsum(t.ravel().tolist()) for t in terms])
            np.testing.assert_allclose(sums, exact, rtol=1e-13, atol=0.0)
        with mock.patch.object(th, "_CHUNK", chunk):
            (rate_only,) = th._tensor_sums(n0, powers, weights, base)
        assert np.array_equal(rate_only, got[0])

    def test_negative_power_rejected(self):
        one = [np.array([0.0, 1.0])], [np.array([0.5, 0.5])]
        with pytest.raises(DomainError, match="nonnegative"):
            th._tensor_sums(1.0, *one, np.array([0.5, -1e-3]), moments=True)
        with pytest.raises(DomainError, match="nonnegative"):
            th._tensor_sums(1.0, [np.array([0.0, -1.0])], one[1], 0.0)


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
