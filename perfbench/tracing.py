"""Per-layer tracing for the traced run.

The tracer replaces library functions where their callers look them up
(for instance `treebmo.bmo.oscillation`, which `bmo_norm` calls, and
`treebmo.maximal.oscillation`, which the sharp maximal function calls) by
wrappers that record one span per call: name, start, end, parent span and
instance id.  Spans stay in memory until the run ends.  A layer's self
time is a span's duration minus the durations of its child spans; calls
are single-threaded, so children never overlap.  Work counts are read
from the objects the wrapped functions return.  Two very hot functions,
`Tree.weight` and `simplex._pivot`, are only counted, without spans.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from time import perf_counter

from treebmo import bmo, hardy, maximal, simplex, tree
from treebmo.sets import member_count

import workloads

LAYERS = ("tree", "funcs", "maximal", "bmo", "hardy", "simplex", "jsonio")

# (module or class, attribute, span name); the span name starts with its layer.
SPANS = (
    (maximal, "oscillation", "funcs.oscillation"),
    (bmo, "oscillation", "funcs.oscillation"),
    (maximal, "sharp_maximal", "maximal.sharp_maximal"),
    (maximal, "hl_maximal", "maximal.hl_maximal"),
    (hardy, "hl_maximal", "maximal.hl_maximal"),
    (hardy, "maximal_level_set", "maximal.level_set"),
    (bmo, "bmo_norm", "bmo.bmo_norm"),
    (bmo, "hormander_constant", "bmo.hormander"),
    (hardy, "good_bad_split", "hardy.good_bad_split"),
    (hardy, "admissible_trapezoids_within", "hardy.trapezoids_within"),
    (hardy, "select_maximal_disjoint", "hardy.select"),
    (hardy, "telescoping_h1_upper", "hardy.telescoping"),
    (hardy, "h1_lp_gauge", "hardy.h1_lp_gauge"),
    (hardy, "h1_duality_lower", "hardy.duality_lower"),
    (hardy, "solve_lp", "simplex.solve_lp"),
    (workloads, "report", "jsonio.report"),
)
COUNTED = (
    (tree.Tree, "weight", "tree.weight"),
    (simplex, "_pivot", "simplex._pivot"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, instance, raised)
        self.stack: list[int] = []
        self.calls: Counter = Counter()  # counted-only functions: calls and raises
        self.raised: Counter = Counter()
        self.work: Counter = Counter()  # counts read from returned objects
        self.lp_solves = 0
        self.max_bits = 0
        self.instance = -1
        self._pairs: set = set()  # distinct (function, set) pairs of the current instance
        self._restore: list = []

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), _HOOKS.get(name)))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def start_instance(self, i: int) -> None:
        self.work["funcs.oscillation.distinct"] += len(self._pairs)
        self._pairs.clear()
        self.instance = i

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance, raised)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls, raised = self.calls, self.raised

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise

        return wrapper

    # -- results ---------------------------------------------------------------

    def metrics(self, instances: int) -> dict[str, float]:
        """Per-layer metrics.  Counts and self times are per traced instance."""
        self.start_instance(-1)
        self_s: Counter = Counter()
        span_calls: Counter = Counter()
        errors: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, _, _, raised) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            span_calls[name] += 1
            errors[name.split(".", 1)[0]] += raised
        for name, n in self.raised.items():
            errors[name.split(".", 1)[0]] += n
        per = 1.0 / instances
        osc_calls = span_calls["funcs.oscillation"]
        out = {
            "tree.weight.calls": self.calls["tree.weight"] * per,
            "funcs.oscillation.calls": osc_calls * per,
            "funcs.oscillation.distinct_ratio": (
                self.work["funcs.oscillation.distinct"] / osc_calls if osc_calls else 0.0
            ),
            "maximal.sharp_maximal.calls": span_calls["maximal.sharp_maximal"] * per,
            "maximal.sets_evaluated": self.work["maximal.sets_evaluated"] * per,
            "maximal.level_set_vertices": self.work["maximal.level_set_vertices"] * per,
            "bmo.bmo_norm.calls": span_calls["bmo.bmo_norm"] * per,
            "bmo.sets_evaluated": self.work["bmo.sets_evaluated"] * per,
            "bmo.hormander.member_pairs": self.work["bmo.hormander.member_pairs"] * per,
            "bmo.hormander.kernel_rows": self.work["bmo.hormander.kernel_rows"] * per,
            "hardy.select.candidates": self.work["hardy.select.candidates"] * per,
            "hardy.select.selected": self.work["hardy.select.selected"] * per,
            "hardy.lp_rows": self.work["hardy.lp_rows"] / self.lp_solves if self.lp_solves else 0.0,
            "hardy.lp_cols": self.work["hardy.lp_cols"] / self.lp_solves if self.lp_solves else 0.0,
            "simplex.pivots": self.calls["simplex._pivot"] * per,
            "simplex.solution_max_bits": self.max_bits,
        }
        for _, _, name in SPANS:
            out[f"{name}.self_s"] = self_s[name] * per
        for layer in LAYERS:
            out[f"{layer}.errors"] = errors[layer]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, inst, raised in self.spans:
                row = [name, round(start - t0, 7), round(end - t0, 7), parent, inst, raised]
                fh.write(json.dumps(row) + "\n")


# -- counts taken from arguments and returned objects ---------------------------


def _oscillation(tr, args, _):
    _, f, s, _ = args
    tr._pairs.add((id(f), type(s).__name__, s.root, s.h, s.degenerate))


def _maximal(tr, _, result):
    tr.work["maximal.sets_evaluated"] += result.certificate.sets_evaluated


def _level_set(tr, _, result):
    tr.work["maximal.level_set_vertices"] += len(result[0])


def _bmo_norm(tr, _, result):
    tr.work["bmo.sets_evaluated"] += result.sets_evaluated


def _hormander(tr, args, _):
    t, kernel, family = args
    tr.work["bmo.hormander.member_pairs"] += sum(comb(member_count(t, s), 2) for s in family)
    tr.work["bmo.hormander.kernel_rows"] += len(kernel.rows())


def _select(tr, args, result):
    tr.work["hardy.select.candidates"] += len(args[1])
    tr.work["hardy.select.selected"] += len(result)


def _solve_lp(tr, args, result):
    a, _, c = args
    tr.lp_solves += 1
    tr.work["hardy.lp_rows"] += len(a)
    tr.work["hardy.lp_cols"] += len(c)
    for x in result.x:
        tr.max_bits = max(tr.max_bits, x.numerator.bit_length(), x.denominator.bit_length())


_HOOKS = {
    "funcs.oscillation": _oscillation,
    "maximal.sharp_maximal": _maximal,
    "maximal.hl_maximal": _maximal,
    "maximal.level_set": _level_set,
    "bmo.bmo_norm": _bmo_norm,
    "bmo.hormander": _hormander,
    "hardy.select": _select,
    "simplex.solve_lp": _solve_lp,
}
