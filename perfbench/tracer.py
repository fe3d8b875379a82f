"""Per-layer spans for the traced run, recorded from outside the package.

``Tracer.install`` rebinds each traced function in every ``rootiso``
module namespace that holds it (``rootiso.solver.unit_rescale`` as well as
``rootiso.polynomial.unit_rescale``) and wraps the traced
``IntPolynomial`` and ``RandomModel`` methods on their classes; nothing
under ``src/`` is edited.  ``uninstall`` puts the originals back.

A span is (id, parent id, name, operation index, start, end) in
``perf_counter_ns`` units, kept in memory.  Self time is a span's
duration minus the durations of its direct children.  Work counters are
taken at the same boundaries and are deterministic for a fixed input
sequence.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns


def _bit_volume(args) -> int:
    coeffs = args[0].coeffs
    return len(coeffs) * max((abs(c).bit_length() for c in coeffs), default=0)


class Tracer:
    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.errors = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer.counters, args)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]  # id, child nanoseconds
            stack.append(frame)
            ok = False
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if not ok:
                    tracer.errors[name] += 1
                tracer.spans.append((span_id, parent, name, tracer.op, start, end))
            if after is not None:
                after(tracer.counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, before):
        tracer = self

        def wrapper(*args, **kwargs):
            before(tracer.counters, args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Replace ``original`` wherever a rootiso module namespace holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "rootiso" and not modname.startswith("rootiso."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))

    def _rebind_method(self, cls, attr, replacement) -> None:
        self._installed.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        import rootiso.cli as cli
        import rootiso.condition as condition
        import rootiso.experiments as experiments
        import rootiso.models as models
        import rootiso.polynomial as polynomial
        import rootiso.regions as regions
        import rootiso.solver as solver

        if self._installed:
            raise RuntimeError("tracer already installed")

        def taylor_before(counters, args):
            counters["polynomial.taylor_shift.bit_volume"] += _bit_volume(args)

        def sqfree_after(counters, args, out):
            counters["polynomial.square_free_part.degree_drop"] += args[0].degree - out.degree

        def unit_after(counters, args, out):
            counters["solver.nodes"] += out.trace.node_count
            counters["solver.useful_nodes"] += out.root_count()
            counters["solver.max_depth"] = max(counters["solver.max_depth"], out.trace.depth)

        def bracket_after(counters, args, out):
            counters["condition.global_condition_bracket.unachieved"] += not out.achieved

        def horner_before(counters, args):
            # called once for f and once for f' on each grid level
            counters["condition.global_condition_bracket.grid_evals"] += args[1].size

        poly = polynomial.IntPolynomial
        for attr, before in (("taylor_shift", taylor_before), ("homothety", None), ("evaluate_dyadic", None)):
            self._rebind_method(poly, attr, self._span(f"polynomial.{attr}", poly.__dict__[attr], before))
        self._rebind_method(
            models.RandomModel, "sample", self._span("models.sample", models.RandomModel.sample)
        )
        functions = (
            ("polynomial.unit_rescale", polynomial.unit_rescale, None),
            ("polynomial.square_free_part", polynomial.square_free_part, sqfree_after),
            ("polynomial.unit_variations", polynomial.unit_variations, None),
            ("polynomial.variations_in_interval", polynomial.variations_in_interval, None),
            ("solver.isolate_unit", solver.isolate_unit, unit_after),
            ("solver.isolate_all", solver.isolate_all, None),
            ("condition.global_condition_bracket", condition.global_condition_bracket, bracket_after),
            ("condition.local_condition", condition.local_condition, None),
            ("regions.numeric_roots", regions.numeric_roots, None),
            ("regions.count_roots_in_cover", regions.count_roots_in_cover, None),
            ("regions.eps_real_separation", regions.eps_real_separation, None),
            ("regions.cover_root_count_bound", regions.cover_root_count_bound, None),
            ("experiments.measure_trial", experiments.measure_trial, None),
            ("experiments.run_steps_scaling", experiments.run_steps_scaling, None),
            ("cli.main", cli.main, None),
        )
        for name, fn, after in functions:
            self._rebind(fn, self._span(name, fn, after=after))
        self._rebind(condition._horner, self._count(condition._horner, horner_before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- results ------------------------------------------------------------

    def deterministic_counts(self) -> dict:
        """Every count that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.errors": n for name, n in self.errors.items()})
        out.update(self.counters)
        return dict(sorted(out.items()))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,op,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
