"""Traced mode: time and count the public callables blockproj's modules call
across module boundaries.

``Tracer.install`` replaces each callable, for the duration of a ``with``
block, by a wrapper that records calls, total time and self time (total
minus the time of wrapped callables it called).  Functions are replaced in
every blockproj module that imported them, methods on their classes, so
objects keep their types and the solver takes the same code paths: a
traced ZeroPolicy is still a ZeroPolicy.  Nothing in blockproj changes.
"""

import contextlib
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

SUITES = ("fejer", "cutter", "budget", "convergence", "qhat")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []
        self._pending_rngs = []
        self._baseline = ({}, {}, {}, {})

    def _records(self):
        return self.calls, self.total_s, self.self_s, self.counts

    def set_baseline(self):
        """Make what was recorded so far the state ``reset`` returns to."""
        self._baseline = tuple(dict(record) for record in self._records())

    def reset(self):
        """Forget everything recorded since ``set_baseline``."""
        for record, saved in zip(self._records(), self._baseline):
            record.clear()
            record.update(saved)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """A wrapper of ``fn`` recording under ``name``.  ``after(args,
        result)`` runs outside the span and its time counts as no one's."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                hook_start = perf_counter()
                after(args, result)
                if stack:
                    stack[-1] += perf_counter() - hook_start
            return result

        return traced

    def _replace(self, owner, attr, value):
        if isinstance(owner, dict):
            old, owner[attr] = owner[attr], value
            self._undo.append(functools.partial(owner.__setitem__, attr, old))
        else:
            old = getattr(owner, attr)
            setattr(owner, attr, value)
            self._undo.append(functools.partial(setattr, owner, attr, old))

    def _function(self, modules, name, fn, after=None):
        traced = self.wrap(name, fn, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._replace(module, attr, traced)

    def _method(self, cls, attr, name, after=None):
        for sub in _subclasses(cls):
            if attr in sub.__dict__:
                self._replace(sub, attr, self.wrap(name, sub.__dict__[attr], after))

    @contextlib.contextmanager
    def install(self):
        """Wrap blockproj's boundary callables inside the block."""
        from blockproj import cli, core, cutters, oracles, perturbation, problems, solver, weights

        modules = [m for n, m in list(sys.modules.items())
                   if n == "blockproj" or n.startswith("blockproj.")]
        count = self.counts

        def on_weights(args, w):
            count["weights.support"] += np.count_nonzero(w)

        def on_budget(args, value):
            count["perturbation.budget_nonzero"] += value > 0.0

        def on_rng(args, rng):
            k = args[1]
            if self._pending_rngs and self._pending_rngs[0][0] != k:
                self.flush()
            counter = rng.bit_generator.state["state"]["counter"].copy()
            self._pending_rngs.append((k, rng.bit_generator, counter))

        def on_run(args, result):
            count["solver.trace_records"] += len(result.trace)
            count["solver.trace_bytes"] += sum(
                rec.point.nbytes + rec.per_index_residuals.nbytes for rec in result.trace)

        def on_trace_csv(args, _):
            count["cli.trace_csv_bytes"] += os.path.getsize(args[1])

        def on_suite(suite):
            def after(args, report):
                count[f"oracles.{suite}_trials"] += report.trials
            return after

        try:
            for fn in (core.validate_config, core.as_vector, core.normalize_sigma):
                self._function(modules, f"core.{fn.__name__}", fn)
            self._method(cutters.Cutter, "apply", "cutters.apply")
            self._method(cutters.Cutter, "residual", "cutters.residual")
            self._method(weights.WeightSchedule, "weights_at", "weights.weights_at", on_weights)
            self._function(modules, "perturbation.budget", perturbation.budget, on_budget)
            self._function(modules, "perturbation.rng", perturbation.perturbation_rng, on_rng)
            self._method(perturbation.PerturbationPolicy, "generate", "perturbation.generate")
            self._function(modules, "solver.run", solver.run, on_run)
            for gen in (problems.gen_linear_feasibility, problems.gen_l1_constrained,
                        problems.gen_disc_intersection):
                self._function(modules, "problems.generate", gen)
            self._function(modules, "problems.load", problems.load_problem)
            self._function(modules, "problems.save", problems.save_problem)
            self._function(modules, "cli.solve", cli.cmd_solve)
            self._function(modules, "cli.gen", cli.cmd_gen)
            self._function(modules, "cli.assemble", cli.assemble_config)
            self._function(modules, "cli.write_trace", cli.write_trace_csv, on_trace_csv)
            self._function(modules, "cli.write_summary", cli.write_summary)
            for suite in SUITES:
                fn = oracles.SUITES[suite]
                self._replace(oracles.SUITES, suite,
                              self.wrap(f"oracles.{suite}", fn, on_suite(suite)))
            yield self
        finally:
            self.flush()
            for undo in reversed(self._undo):
                undo()
            self._undo.clear()

    def flush(self):
        """Count the pending perturbation generators that were drawn from."""
        for _, bit_generator, counter in self._pending_rngs:
            if not np.array_equal(bit_generator.state["state"]["counter"], counter):
                self.counts["perturbation.rng_used"] += 1
        self._pending_rngs.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self):
        """Per-layer values of everything recorded since the last reset."""
        calls, self_s, total_s, count = self.calls, self.self_s, self.total_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cutters.apply_calls": calls["cutters.apply"],
            "cutters.apply_s": self_s["cutters.apply"],
            "cutters.residual_calls": calls["cutters.residual"],
            "cutters.residual_s": self_s["cutters.residual"],
            "perturbation.budget_calls": calls["perturbation.budget"],
            "perturbation.budget_s": self_s["perturbation.budget"],
            "perturbation.budget_nonzero_ratio": ratio(count["perturbation.budget_nonzero"],
                                                       calls["perturbation.budget"]),
            "perturbation.rng_calls": calls["perturbation.rng"],
            "perturbation.rng_s": self_s["perturbation.rng"],
            "perturbation.rng_used_ratio": ratio(count["perturbation.rng_used"],
                                                 calls["perturbation.rng"]),
            "perturbation.generate_calls": calls["perturbation.generate"],
            "perturbation.generate_s": self_s["perturbation.generate"],
            "weights.calls": calls["weights.weights_at"],
            "weights.s": self_s["weights.weights_at"],
            "solver.run_calls": calls["solver.run"],
            "solver.self_s": self_s["solver.run"],
            "solver.support_mean": ratio(count["weights.support"], calls["weights.weights_at"]),
            "solver.trace_records": count["solver.trace_records"],
            "solver.trace_mb": count["solver.trace_bytes"] / 1e6,
            "core.validate_config_s": self_s["core.validate_config"],
            "core.as_vector_calls": calls["core.as_vector"],
            "core.as_vector_s": self_s["core.as_vector"],
            "core.normalize_sigma_calls": calls["core.normalize_sigma"],
            "core.normalize_sigma_s": self_s["core.normalize_sigma"],
            "problems.generate_s": self_s["problems.generate"],
            "problems.save_s": self_s["problems.save"],
            "problems.load_s": self_s["problems.load"],
            "cli.gen_s": self_s["cli.gen"],
            "cli.solve_s": self_s["cli.solve"],
            "cli.assemble_s": self_s["cli.assemble"],
            "cli.write_trace_s": self_s["cli.write_trace"],
            "cli.write_summary_s": self_s["cli.write_summary"],
            "cli.trace_csv_bytes": count["cli.trace_csv_bytes"],
        }
        for suite in SUITES:
            # a suite is the top of its call tree: report its whole time
            out[f"oracles.{suite}_s"] = total_s[f"oracles.{suite}"]
            out[f"oracles.{suite}_trials"] = count[f"oracles.{suite}_trials"]
        return out

    def self_since_baseline_s(self):
        """Self time of every wrapped call since the baseline, added up."""
        baseline = self._baseline[2]
        return sum(t - baseline.get(name, 0.0) for name, t in self.self_s.items())
