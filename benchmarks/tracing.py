"""Op timing and per-layer span tracing for the benchmark, from outside ``ehmac``.

Ops, passes and spans are all timed on the clock of ``SpeedProbe``, which
leaves out the probe's own time and converts to a reference machine speed.

Nothing under ``src/`` is edited: the wrappers replace the *caller-side*
bindings of each public function for the duration of a pass and put the
originals back afterwards.  Three binding facts of the package decide how:

* ``ehmac.solver`` and ``ehmac.cli`` import ``phi_moments``,
  ``sum_throughput``, ``measure_closed_form``, ``solve_symmetric_mac`` and
  ``best_k_search`` by name, and ``best_k_search`` calls the solver-module
  global.  Patching only the defining module would miss those calls, so
  ``Patcher.replace`` rebinds every ``ehmac.*`` module global that holds the
  function.
* ``import ehmac.simulate`` yields the re-exported *function* (the package
  attribute shadows the submodule), so modules are looked up in
  ``sys.modules``.
* ``_integrate`` binds ``phi.eval3`` once on entry, so ``PhiMoments.eval3``
  is patched on the class before any solve starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import NamedTuple

import numpy as np


def ehmac_modules():
    """The ``ehmac`` package and submodules, by name.

    ``ehmac.cli`` is imported first: the package itself does not import the
    CLI or config modules, and a module loaded after patching would bind the
    unwrapped functions.
    """
    importlib.import_module("ehmac.cli")
    return {name: mod for name, mod in sys.modules.items()
            if name == "ehmac" or name.startswith("ehmac.")}


class SpeedProbe:
    """The run's clock, and a fixed piece of work that measures machine speed.

    On a shared virtual machine the speed of the CPU changes by tens of
    percent in phases of a few seconds, for interpreted and numpy code alike
    and in CPU time as much as in wall time.  The probe times a fixed piece
    of work that does not touch ``ehmac``: half an interpreter loop, half
    numpy calls on tiny arrays, the kind of code most of ``ehmac``'s time
    goes to.  It runs between ops, at most every ``every_s`` seconds, and
    after every pass.  Its own time is left out of ``now()``, the clock
    every op, pass and span is timed with, and ``scaled`` converts an
    interval of that clock to the reference speed at which one probe takes
    ``ref_s`` seconds.
    """

    ref_s = 0.02     # the reference speed: one probe takes this long
    every_s = 0.5

    def __init__(self):
        self.knots = np.arange(8.0)
        self.excluded = 0.0  # probe time taken out of now()
        self.samples = []    # (now() at the end of the probe, probe seconds)

    def now(self):
        return time.perf_counter() - self.excluded

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(120_000):
            acc += (i % 7) * 0.5
        a = self.knots
        for _ in range(2_000):
            np.interp(0.5, a, a)
            float(a.sum()) + float(a[3])
        dt = time.perf_counter() - t0
        self.excluded += dt
        self.samples.append((self.now(), dt))

    def maybe(self):
        """Probe if the last probe is ``every_s`` or more seconds old."""
        if not self.samples or self.now() - self.samples[-1][0] >= self.every_s:
            self()

    def scaled(self, t0, t1):
        """Seconds from ``t0`` to ``t1`` on ``now()``, at the reference speed.

        The speed, ``ref_s`` over the probe time, is interpolated linearly
        between the probes (and held constant before the first and after the
        last), and integrated over the interval.
        """
        times = np.array([t for t, _ in self.samples])
        speed = self.ref_s / np.array([dt for _, dt in self.samples])
        knots = np.concatenate(([t0], times[(times > t0) & (times < t1)], [t1]))
        v = np.interp(knots, times, speed)
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(knots)))


class Patcher:
    """Replaces bindings and remembers how to put every one of them back."""

    def __init__(self):
        self._undo = []

    def replace(self, module_name, attr, make_wrapper):
        """Wrap ``module.attr`` and rebind every ehmac global that holds it."""
        current = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(current)
        for mod in ehmac_modules().values():
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
        return wrapper

    def replace_method(self, cls, attr, make_wrapper):
        current = cls.__dict__[attr]
        self._undo.append((cls, attr, current))
        setattr(cls, attr, make_wrapper(current))

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class OpRecord(NamedTuple):
    op_id: int
    t0: float       # start and end on the probe's clock
    t1: float
    error: str | None
    key: object
    result: object

    @property
    def seconds(self):
        return self.t1 - self.t0


class OpClock:
    """One pair of clock readings per op; on in every run.

    Before an op starts, the speed probe runs if it is due, so the probe's
    samples follow the run's speed phases op by op.  The op key identifies
    the inputs where the caller passes them positionally (capacity and K of
    a symmetric solve), for the digest check.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.records = []
        self.op_id = -1

    def wrap(self, key_of=None):
        now = self.probe.now

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                self.probe.maybe()
                self.op_id += 1
                key = key_of(*args, **kwargs) if key_of else None
                t0 = now()
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:
                    self.records.append(OpRecord(self.op_id, t0, now(),
                                                 type(err).__name__, key, None))
                    raise
                self.records.append(OpRecord(self.op_id, t0, now(), None, key, result))
                return result
            return timed
        return make


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) plus counters."""

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, elems_arg=None, result_count=None):
        """Wrapper factory: time each call as a span named ``name``.

        ``elems_arg`` is the positional index whose array size is added to
        ``<name>.elems``; ``result_count`` maps the return value to a count.
        """
        now = self.clock.probe.now

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(idx)
                if elems_arg is not None:
                    self.count(name + ".elems", int(np.size(args[elems_arg])))
                t0 = now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = now()
                    self._stack.pop()
                    self.spans[idx] = (name, t0, t1, parent, self.clock.op_id)
                self.count(name + ".calls")
                if result_count is not None:
                    result_count(result)
                return result
            return traced
        return make

    def counter(self, name):
        """Wrapper factory: count calls only (for the hottest scalar path)."""
        def make(fn):
            counts = self.counts
            counts.setdefault(name, 0)

            @functools.wraps(fn)
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted
        return make

    def install(self, patcher: Patcher):
        """Wrap the public functions of every layer the benchmark reaches."""
        from ehmac.grids import PolicyInterp
        from ehmac.solver import SolveReport
        from ehmac.throughput import PhiMoments

        for fn in ("solve_symmetric_mac", "solve_mac_gauss_seidel",
                   "best_k_search", "el_ode_solve"):
            patcher.replace("ehmac.solver", fn, self.span(f"solver.{fn}"))
        for fn in ("phi_moments", "sum_throughput"):
            patcher.replace("ehmac.throughput", fn, self.span(f"throughput.{fn}"))
        patcher.replace_method(PhiMoments, "eval3", self.counter("throughput.eval3.calls"))
        patcher.replace_method(PhiMoments, "extended", self.span("throughput.phi_extend"))
        for fn in ("measure_closed_form", "measure_volterra"):
            patcher.replace("ehmac.measures", fn, self.span(f"measures.{fn}"))
        for meth in ("value", "tau", "tau_inverse", "power_integral"):
            patcher.replace_method(PolicyInterp, meth,
                                   self.span(f"grids.{meth}", elems_arg=1))
        for fn in ("rate", "rate_deriv"):
            patcher.replace("ehmac.rates", fn, self.span(f"rates.{fn}", elems_arg=1))
        patcher.replace("ehmac.arrivals", "sample_arrivals",
                        self.span("arrivals.sample_arrivals",
                                  result_count=lambda r: self.count("arrivals.events",
                                                                    int(r[0].size))))
        for fn in ("simulate", "crossing_balance"):
            patcher.replace("ehmac.simulate", fn, self.span(f"simulate.{fn}"))
        patcher.replace("ehmac.cli", "cmd_solve", self.span("cli.cmd_solve"))
        patcher.replace("ehmac.cli", "_write_summary", self.span("cli.write"))
        patcher.replace_method(SolveReport, "write_dir", self.span("cli.write"))
        patcher.replace("ehmac.config", "load_config", self.span("config.load_config"))

    def self_times(self):
        """Per-span self time: duration minus the time its children cover.

        Spans nest strictly (one thread), so the children's durations add up
        to the part of the parent they cover.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[0], (s[2] - s[1]) - c) for s, c in zip(self.spans, child)]

    def inclusive(self):
        out = {}
        for name, t0, t1, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (t1 - t0)
        return out

    def to_json(self):
        return {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}


MODULES = ("solver", "throughput", "measures", "grids", "rates", "arrivals",
           "simulate", "cli", "config")


def layer_metrics(tracer: Tracer, op_records, passes: int):
    """Per-layer metrics per traced pass, keyed as in BENCHMARK.json.

    ``op_records`` are the op clock's records of the traced passes only.
    """
    incl = tracer.inclusive()
    self_by_module = dict.fromkeys(MODULES, 0.0)
    self_by_span = {}
    for name, dt in tracer.self_times():
        self_by_module[name.split(".", 1)[0]] += dt
        self_by_span[name] = self_by_span.get(name, 0.0) + dt
    counts = tracer.counts
    raised = {}
    outer_iters = 0
    for r in op_records:
        if r.error is not None:
            raised[r.error] = raised.get(r.error, 0) + 1
        elif hasattr(r.result, "sweeps"):
            outer_iters += r.result.sweeps

    def s(name):
        return incl.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    m = {
        "solver.el_ode_solve.s": s("solver.el_ode_solve"),
        "solver.el_ode_solve.calls": c("solver.el_ode_solve.calls"),
        "solver.self_s": self_by_module["solver"],
        "solver.outer_iters": outer_iters,
        "solver.raised.NonAdmissibleTrajectoryError": raised.get("NonAdmissibleTrajectoryError", 0),
        "solver.raised.SolverDivergenceError": raised.get("SolverDivergenceError", 0),
        "solver.raised.NumericOverflowError": raised.get("NumericOverflowError", 0),
        "throughput.eval3.calls": c("throughput.eval3.calls"),
        "throughput.phi_moments.s": s("throughput.phi_moments"),
        "throughput.phi_moments.calls": c("throughput.phi_moments.calls"),
        "throughput.phi_extensions": c("throughput.phi_extend.calls"),
        "throughput.sum_throughput.s": s("throughput.sum_throughput"),
        "throughput.sum_throughput.calls": c("throughput.sum_throughput.calls"),
        "throughput.self_s": self_by_module["throughput"],
        "measures.measure_closed_form.s": s("measures.measure_closed_form"),
        "measures.measure_volterra.s": s("measures.measure_volterra"),
        "measures.self_s": self_by_module["measures"],
    }
    for meth in ("tau_inverse", "value", "tau", "power_integral"):
        m[f"grids.{meth}.s"] = s(f"grids.{meth}")
        m[f"grids.{meth}.elems"] = c(f"grids.{meth}.elems")
    m.update({
        "grids.self_s": self_by_module["grids"],
        "rates.rate.s": s("rates.rate"),
        "rates.rate.elems": c("rates.rate.elems"),
        "rates.rate_deriv.elems": c("rates.rate_deriv.elems"),
        "rates.self_s": self_by_module["rates"],
        "arrivals.sample_arrivals.s": s("arrivals.sample_arrivals"),
        "arrivals.events": c("arrivals.events"),
        "simulate.simulate.s": s("simulate.simulate"),
        "simulate.self_s": self_by_module["simulate"],
        "cli.write_s": s("cli.write"),
        "config.load_config.s": s("config.load_config"),
    })
    per_pass = {k: v / passes for k, v in m.items()}
    return per_pass, self_by_module, self_by_span
