"""Per-layer tracing of ncpforge from outside the package.

`Tracer.install()` replaces selected public functions and methods of
ncpforge with timing and counting wrappers.  A function is patched under
every name that refers to it in every loaded ncpforge module (and in the
module-level dicts, such as `report.RENDERERS`), so a call through any
import path is seen; `uninstall()` puts the originals back.

Each wrapper belongs to a layer, the module that defines the function.
Wrappers of three kinds:

* span: a coarse call (a group build, a suite, an orbit).  It is written
  out as a span record (name, start, end, parent, group).
* hot: a call made thousands of times (a matrix product, a kernel, a meet).
  Only its call count and total time are kept.
* count: only its call count is kept.

Span and hot calls push a frame on a stack, so each layer's self time is
its frames' time minus the time of frames nested inside them.  Generator
functions are timed per `next()`, which charges the enumeration to its own
layer instead of to the consumer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

LAYERS = ("cyclo", "group", "ncp", "factorizations", "hurwitz",
          "parabolic", "report", "cli")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.spans: list[dict] = []
        self.distinct: set = set()
        self.frames = 0
        self.counted_calls: set[str] = set()
        # stack entries: [layer, start, child_seconds, span_id, group]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _group(self) -> str | None:
        return self._stack[-1][4] if self._stack else None

    def _span_parent(self) -> int | None:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def _push(self, layer: str, span_name: str | None, group: str | None):
        span_id = None
        group = group or self._group()
        if span_name is not None:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": span_name,
                               "parent": self._span_parent(),
                               "group": group})
        self._stack.append([layer, time.perf_counter(), 0.0, span_id, group])

    def _pop(self, metric: str | None) -> None:
        layer, start, child, span_id, _ = self._stack.pop()
        end = time.perf_counter()
        self.frames += 1
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id]["start"] = start - self.t0
            self.spans[span_id]["end"] = end - self.t0
        if metric is not None:
            self.calls[metric] = self.calls.get(metric, 0) + 1
            self.seconds[metric] = self.seconds.get(metric, 0.0) + duration

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers --------------------------------------------------------

    def timed(self, fn, layer: str, metric: str, span: bool,
              group_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group = group_of(*args, **kwargs) if group_of else None
            tracer._push(layer, metric if span else None, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(metric)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def counted(self, fn, metric: str):
        calls = self.calls
        self.counted_calls.add(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] = calls.get(metric, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def enumerated(self, fn, layer: str, target_pos: int):
        """Generator wrapper: counts yields and distinct (group, target,
        tuple) triples, and times each step in `layer`.  `target_pos` is
        the position of the `target` argument after the lattice."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(ncp, *args, **kwargs):
            target = kwargs.get("target")
            if target is None and len(args) > target_pos:
                target = args[target_pos]
            if target is None:
                target = ncp.c
            label = ncp.group.spec.label
            it = fn(ncp, *args, **kwargs)
            while True:
                tracer._push(layer, None, None)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._pop(None)
                tracer.add("factorizations.yields", 1)
                tracer.distinct.add((label, target, item))
                yield item
        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_everywhere(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "ncpforge" and not name.startswith("ncpforge."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is orig:
                            self._patches.append((value, key, item))
                            value[key] = wrapper

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from ncpforge import cli, cyclo, factorizations, group, hurwitz, ncp
        from ncpforge import parabolic, report

        t = self
        Matrix, RG, Ncp = cyclo.Matrix, group.ReflectionGroup, ncp.NcpLattice

        def built(_, grp, *args, **kwargs):
            t.add("group.builds", 1)
            t.add("group.elements", grp.size)
            t.add("group.mult_table_mb", grp.mult.nbytes / 1e6)

        self._patch_attr(RG, "__init__", t.timed(
            RG.__init__, "group", "group.build", True,
            group_of=lambda self_, spec, *a, **k: spec.label, after=built))
        self._patch_attr(RG, "coxeter_regularity_check", t.timed(
            RG.coxeter_regularity_check, "group", "group.regularity", True))
        self._patch_attr(Matrix, "__matmul__", t.timed(
            Matrix.__matmul__, "cyclo", "cyclo.matmul", False))
        self._patch_attr(Matrix, "apply", t.timed(
            Matrix.apply, "cyclo", "cyclo.apply", False))
        self._patch_everywhere(cyclo.kernel, t.timed(
            cyclo.kernel, "cyclo", "cyclo.kernel", False))

        self._patch_attr(Ncp, "__init__", t.timed(
            Ncp.__init__, "ncp", "ncp.build", True,
            group_of=lambda self_, grp: grp.spec.label))
        self._patch_attr(Ncp, "meet", t.timed(
            Ncp.meet, "ncp", "ncp.meet_join", False))
        self._patch_attr(Ncp, "join", t.timed(
            Ncp.join, "ncp", "ncp.meet_join", False))
        self._patch_attr(Ncp, "multichain_count", t.timed(
            Ncp.multichain_count, "ncp", "ncp.multichain", True))

        self._patch_everywhere(factorizations.fact_counts, t.timed(
            factorizations.fact_counts, "factorizations",
            "factorizations.fact_counts", True))
        for fn, target_pos in ((factorizations.iter_factorisations, 0),
                               (factorizations.iter_fact_with_composition, 1)):
            self._patch_everywhere(fn, t.enumerated(fn, "factorizations",
                                                    target_pos))
        self._patch_everywhere(hurwitz.hurwitz_orbit, t.timed(
            hurwitz.hurwitz_orbit, "hurwitz", "hurwitz.orbit", True,
            after=lambda orbit, *a, **k: t.add("hurwitz.orbit_states",
                                               orbit.size)))
        self._patch_everywhere(hurwitz.hurwitz_act, t.counted(
            hurwitz.hurwitz_act, "hurwitz.act"))
        self._patch_everywhere(hurwitz.strong_conjugacy_classes, t.timed(
            hurwitz.strong_conjugacy_classes, "hurwitz",
            "hurwitz.strong_conjugacy", True))

        self._patch_everywhere(parabolic.pointwise_fixator, t.timed(
            parabolic.pointwise_fixator, "parabolic", "parabolic.fixator",
            True, after=lambda _, grp, *a, **k: t.add(
                "parabolic.fixator_elements_scanned", len(grp.matrices))))
        self._patch_everywhere(parabolic.length2_strata, t.timed(
            parabolic.length2_strata, "parabolic", "parabolic.strata", True))
        self._patch_everywhere(parabolic.submax_counts, t.timed(
            parabolic.submax_counts, "parabolic", "parabolic.submax", True))

        for render in (report.render_json, report.render_csv,
                       report.render_text):
            self._patch_everywhere(render, t.timed(
                render, "report", "report.render", True))

        self._patch_everywhere(cli.main, t.timed(
            cli.main, "cli", "cli.main", True))
        self._patch_everywhere(cli.run_group, t.timed(
            cli.run_group, "cli", "cli.run_group", True,
            group_of=lambda spec, *a, **k: spec.label))
        for suite in cli.SUITES:
            fn = getattr(cli, "_suite_" + suite.replace("-", "_"))
            self._patch_everywhere(fn, t.timed(
                fn, "cli", "cli.run_suite." + suite, True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- output ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts and inclusive seconds by metric name, plus self time by
        layer."""
        out: dict[str, float] = {}
        for metric, calls in self.calls.items():
            out[metric + "_calls"] = calls
        for metric, seconds in self.seconds.items():
            out[metric + "_s"] = seconds
        out.update(self.counters)
        out["factorizations.distinct"] = len(self.distinct)
        for layer, seconds in self.self_s.items():
            out[layer + ".self_s"] = seconds
        out["trace.spans"] = len(self.spans)
        frame_cost, count_cost = wrapper_costs()
        out["trace.overhead_est_s"] = (
            self.frames * frame_cost
            + sum(self.calls[m] for m in self.counted_calls) * count_cost)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"type": "span", **span}) + "\n")
            fh.write(json.dumps({"type": "metrics", **self.metrics()}) + "\n")


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a timed wrapper and a counting wrapper add to one call,
    measured on a no-op (medians of `repeats`)."""
    def noop():
        return None

    scratch = Tracer()
    timed = scratch.timed(noop, "cli", "calibration", False)
    counted = scratch.counted(noop, "calibration")

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    samples = [(per_call(timed) - per_call(noop),
                per_call(counted) - per_call(noop)) for _ in range(repeats)]
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))
