"""Per-layer tracing for the traced benchmark run, wrapped from outside.

`Tracer.install()` rebinds the package's public functions and methods with
wrappers; it runs only in the traced worker process, so untraced runs
execute the package unchanged.  Coarse layer boundaries get spans (name,
start, end, parent, item id), kept in memory until the run ends.  Hot
functions, called about a million times in one law-suite run, get counters
and no span records.  A span's self time is its duration minus the time
covered by its child spans.  `finset` is also timed, without a span, so its
time is counted inside the enclosing span's self time as well.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from elgot import base_monads, bsp, cli, core, handler, iteration, laws, \
    resumption, while_lang

perf_counter = time.perf_counter

KLEENE = "base_monads.kleene_iterate"

# module function -> span name
SPANS = {
    (iteration, "iterate_res"): "iteration.iterate_res",
    (iteration, "guard_transform"): "iteration.guard_transform",
    (iteration, "solve_guarded"): "iteration.solve_guarded",
    (handler, "handle"): "handler.handle",
    (while_lang, "parse"): "while_lang.parse",
    (while_lang, "interpret"): "while_lang.interpret",
    (bsp, "load_bsp"): "bsp.load_bsp",
    (bsp, "build_equations"): "bsp.build_equations",
    (bsp, "solve_and_unfold"): "bsp.solve_and_unfold",
    (bsp, "lts_to_text"): "bsp.export",
    (bsp, "lts_to_dot"): "bsp.export",
    (bsp, "lts_to_csv"): "bsp.export",
    (cli, "main"): "cli.main",
    (laws, "run_axiom_suite"): "laws.suite",
    (laws, "run_morphism_suite"): "laws.suite",
    (laws, "run_handler_suite"): "laws.suite",
}
# recursive functions: only the outermost call opens a span, every call counts
OUTERMOST_ONLY = {"while_lang.interpret", "resumption.truncate"}

# module function -> counter name
COUNTED = {
    (core, "canon_key"): "core.canon_key.calls",
    (core, "compose_kleisli"): "core.compose_kleisli.calls",
    (handler, "zeta"): "handler.zeta.calls",
}

PER_LAYER = (
    ("base_monads.kleene_iterate.calls", "count"),
    ("base_monads.kleene_iterate.self_s", "s"),
    ("base_monads.kleene_iterate.binds", "count"),
    ("base_monads.kleene_iterate.rounds", "count"),
    ("base_monads.kleene_iterate.points", "count"),
    ("base_monads.bind.calls", "count"),
    ("base_monads.finset.calls", "count"),
    ("base_monads.finset.elems", "count"),
    ("base_monads.finset.self_s", "s"),
    ("core.canon_key.calls", "count"),
    ("core.compose_kleisli.calls", "count"),
    ("resumption.trees_built", "count"),
    ("resumption.steps_run", "count"),
    ("resumption.out.calls", "count"),
    ("resumption.memo_hit_ratio", "ratio"),
    ("resumption.force.calls", "count"),
    ("resumption.bind.calls", "count"),
    ("resumption.strength.calls", "count"),
    ("resumption.truncate.calls", "count"),
    ("resumption.truncate.self_s", "s"),
    ("iteration.iterate_res.calls", "count"),
    ("iteration.guard_transform.calls", "count"),
    ("iteration.solve_guarded.calls", "count"),
    ("handler.handle.calls", "count"),
    ("handler.handle.self_s", "s"),
    ("handler.handle.rounds", "count"),
    ("handler.handle.converged_ratio", "ratio"),
    ("handler.zeta.calls", "count"),
    ("while_lang.parse.self_s", "s"),
    ("while_lang.interpret.calls", "count"),
    ("while_lang.interpret.self_s", "s"),
    ("bsp.load_bsp.self_s", "s"),
    ("bsp.build_equations.self_s", "s"),
    ("bsp.solve_and_unfold.self_s", "s"),
    ("bsp.export.self_s", "s"),
    ("bsp.edges", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("laws.suite.self_s", "s"),
    ("laws.samples", "count"),
    ("laws.failures", "count"),
    ("laws.skipped", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.records = []        # (id, parent id, name, start, end, self s, item)
        self.stack = []          # open frames: [name, start, child s, id]
        self.open = Counter()    # open frames per name
        self.count = Counter()
        self.self_s = Counter()  # time of timed hot functions (finset)
        self.item = None
        self.next_id = 0

    def set_item(self, item_id):
        self.item = item_id

    # -- frames -----------------------------------------------------------

    def _enter(self, name):
        self.next_id += 1
        frame = [name, perf_counter(), 0.0, self.next_id]
        self.stack.append(frame)
        self.open[name] += 1
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        self.open[frame[0]] -= 1
        duration = end - frame[1]
        parent = None
        if self.stack:
            self.stack[-1][2] += duration
            parent = self.stack[-1][3]
        self.records.append((frame[3], parent, frame[0], frame[1], end,
                             duration - frame[2], self.item))

    def span(self, name, fn, after=None):
        tracer = self
        calls = name + ".calls"
        outermost_only = name in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            tracer.count[calls] += 1
            if outermost_only and tracer.open[name]:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result)
            return result
        return wrapper

    def counter(self, name, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Rebind every module's copy of each wrapped function, then wrap
        the hot methods on their classes."""
        after = {"handler.handle": self._after_handle,
                 "bsp.solve_and_unfold": self._after_unfold,
                 "laws.suite": self._after_suite}
        wrapped = [(getattr(module, attr), self.span(name, getattr(module, attr),
                                                     after.get(name)))
                   for (module, attr), name in SPANS.items()]
        wrapped += [(getattr(module, attr), self.counter(name, getattr(module, attr)))
                    for (module, attr), name in COUNTED.items()]
        wrapped += [(base_monads.kleene_iterate, self._kleene(base_monads.kleene_iterate)),
                    (base_monads.finset, self._finset(base_monads.finset)),
                    (handler.check_universal_triangles,
                     self._triangles(handler.check_universal_triangles))]
        replace = {id(fn): (fn, wrapper) for fn, wrapper in wrapped}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "elgot" and not mod_name.startswith("elgot."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        for cls in (base_monads.MaybeMonad, base_monads.FinSetMonad,
                    base_monads.NondetStateMonad):
            cls.bind = self._base_bind(cls.bind)
        rm = resumption.ResumptionMonad
        rm.bind = self.counter("resumption.bind.calls", rm.bind)
        rm.strength = self.counter("resumption.strength.calls", rm.strength)
        rm.truncate = self.span("resumption.truncate", rm.truncate)
        resumption.ResTree.out = self.counter("resumption.out.calls",
                                              resumption.ResTree.out)
        resumption.Thunk.force = self.counter("resumption.force.calls",
                                              resumption.Thunk.force)
        resumption.ResTree.__init__ = self._tree_init(resumption.ResTree.__init__)

    def _kleene(self, fn):
        tracer = self
        span = self.span(KLEENE, fn)

        def wrapper(f):
            before = tracer.count["kleene.binds"]
            result = span(f)
            points = len(f.dom.elements)
            tracer.count["kleene.points"] += points
            if points:
                tracer.count["kleene.rounds"] += (tracer.count["kleene.binds"] - before) // points
            return result
        return wrapper

    def _base_bind(self, fn):
        tracer = self
        count = self.count

        def wrapper(self_, v, f):
            count["base_monads.bind.calls"] += 1
            stack = tracer.stack
            if stack and stack[-1][0] == KLEENE:
                count["kleene.binds"] += 1
            return fn(self_, v, f)
        return wrapper

    def _finset(self, fn):
        """Counts every call and times the outermost one.  Like the other
        hot functions it opens no frame, so its time stays in the self
        time of the enclosing span too."""
        count = self.count
        timed = self.self_s
        depth = [0]

        def wrapper(elems):
            count["base_monads.finset.calls"] += 1
            if depth[0]:
                result = fn(elems)
            else:
                depth[0] = 1
                start = perf_counter()
                try:
                    result = fn(elems)
                finally:
                    timed["base_monads.finset"] += perf_counter() - start
                    depth[0] = 0
            count["base_monads.finset.elems"] += len(result.elems)
            return result
        return wrapper

    def _tree_init(self, init):
        count = self.count

        def wrapper(self_, step=None, fn=None):
            count["resumption.trees_built"] += 1
            if fn is not None:
                inner = fn

                def fn():
                    count["resumption.steps_run"] += 1
                    return inner()
            init(self_, step, fn)
        return wrapper

    def _triangles(self, fn):
        count = self.count

        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            count["laws.skipped"] += report.skipped
            return report
        return wrapper

    def _after_handle(self, result):
        self.count["handler.handle.rounds"] += result.rounds
        self.count["handle.converged"] += result.converged

    def _after_unfold(self, lts):
        self.count["bsp.edges"] += len(lts.edges)

    def _after_suite(self, report):
        for r in report.results:
            self.count["laws.samples"] += r.samples
            self.count["laws.failures"] += len(r.failures)

    # -- results -----------------------------------------------------------

    def span_self_times(self) -> Counter:
        own = Counter()
        for _id, _parent, name, _start, _end, s, _item in self.records:
            own[name] += s
        return own

    def metrics(self) -> dict:
        c = self.count
        own = self.span_self_times() + self.self_s
        values = {name: c[name] for name, _unit in PER_LAYER}
        values.update({
            "base_monads.kleene_iterate.binds": c["kleene.binds"],
            "base_monads.kleene_iterate.rounds": c["kleene.rounds"],
            "base_monads.kleene_iterate.points": c["kleene.points"],
            "resumption.memo_hit_ratio": (1 - c["resumption.steps_run"] / c["resumption.out.calls"]
                                          if c["resumption.out.calls"] else 0.0),
            "handler.handle.converged_ratio": (c["handle.converged"] / c["handler.handle.calls"]
                                               if c["handler.handle.calls"] else 0.0),
        })
        for name, unit in PER_LAYER:
            if unit == "s":
                values[name] = own[name[:-len(".self_s")]]
        return values

    def shares(self, wall: float) -> dict:
        """Each span's self time as a share of the traced wall time."""
        return {name: s / wall for name, s in sorted(self.span_self_times().items())}
