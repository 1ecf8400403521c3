"""Outside-in tracing of the cde layers.

The tracer replaces, for the length of one pass, the names that cde's own
modules look up at call time (``cde.simulation.draw_sample``,
``cde.oracle.kl``, ...) with wrappers that record a span per call. Nothing
under ``src/`` is edited, so the traced pass runs the real call path and
must produce the same bytes as an untraced one. A name that a later
refactor removes is simply not wrapped, and its metrics read as 0.

Spans are kept in memory and reduced to per-layer numbers when the pass
ends. A span's self time is its duration minus the part of it that its
child spans cover; spans opened on a thread-pool thread with nothing open
on that thread are children of the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
import time

ESTIMATOR_NAMES = ("laplace", "kt", "braess-sauer", "competitive", "best-natural")
ESTIMATOR_SPAN = "estimators."

# (module, attribute path, span name). Each attribute is a name that some
# caller resolves at call time, so replacing it times the real call path.
PATCHES = (
    ("cde", "monte_carlo_regret", "simulation"),
    ("cde", "exact_expected_kl", "oracle.exact_expected_kl"),
    ("cde", "exact_natural_regret", "oracle.exact_natural_regret"),
    ("cde", "exact_class_regret", "oracle.exact_class_regret"),
    ("cde.cli", "main", "cli"),
    ("cde.cli", "run_experiment", "simulation"),
    ("cde.cli", "format_csv", "cli.format_csv"),
    ("cde.cli", "_write_atomic", "cli.write_atomic"),
    ("cde.simulation", "make_generator", "distributions.make_generator"),
    ("cde.simulation", "draw_sample", "distributions.draw_sample"),
    ("cde.simulation", "validate_distribution", "distributions.validate_distribution"),
    ("cde.simulation", "build_profile", "profile.build_profile"),
    ("cde.simulation", "apply_estimator", ESTIMATOR_SPAN),
    ("cde.simulation", "kl", "divergence.kl"),
    ("cde.distributions", "DistributionSpec.realize", "distributions.realize"),
    ("cde.distributions", "validate_distribution", "distributions.validate_distribution"),
    ("cde.estimators", "validate_distribution", "distributions.validate_distribution"),
    ("cde.oracle", "validate_distribution", "distributions.validate_distribution"),
    ("cde.oracle", "exact_expected_kl", "oracle.exact_expected_kl"),
    ("cde.oracle", "apply_estimator", ESTIMATOR_SPAN),
    ("cde.oracle", "kl", "divergence.kl"),
    ("cde.oracle", "profile_from_counts", "oracle.profile_from_counts"),
)

# Per-layer metrics and their units, in the order they are reported.
LAYER_METRICS = (
    ("distributions.make_generator.calls", "count"),
    ("distributions.make_generator.self_s", "s"),
    ("distributions.realize.calls", "count"),
    ("distributions.realize.self_s", "s"),
    ("distributions.draw_sample.calls", "count"),
    ("distributions.draw_sample.self_s", "s"),
    ("distributions.draw_sample.computed_bytes", "B"),
    ("distributions.validate_distribution.calls", "count"),
    ("distributions.validate_distribution.self_s", "s"),
    ("profile.build_profile.calls", "count"),
    ("profile.build_profile.self_s", "s"),
    ("estimators.apply_estimator.calls", "count"),
    ("estimators.apply_estimator.self_s", "s"),
    *((f"estimators.{name}.self_s", "s") for name in ESTIMATOR_NAMES),
    ("divergence.kl.calls", "count"),
    ("divergence.kl.self_s", "s"),
    ("simulation.self_s", "s"),
    ("simulation.eval_ratio", "ratio"),
    ("simulation.parallel_efficiency", "ratio"),
    ("simulation.trial_p50_us", "us"),
    ("oracle.exact_expected_kl.calls", "count"),
    ("oracle.exact_expected_kl.self_s", "s"),
    ("oracle.exact_natural_regret.calls", "count"),
    ("oracle.exact_natural_regret.self_s", "s"),
    ("oracle.exact_class_regret.calls", "count"),
    ("oracle.exact_class_regret.self_s", "s"),
    ("oracle.count_vectors", "count"),
    ("oracle.profile_from_counts.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.format_csv.self_s", "s"),
    ("cli.write_atomic.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "trial")

    def __init__(self, name, parent, trial):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = time.perf_counter()
        self.end = None


class Tracer:
    """Records spans around the patched names while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = {"distributions.draw_sample.computed_bytes": 0, "oracle.count_vectors": 0}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._trial_seq = itertools.count()
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent, getattr(self._local, "trial", None))
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
            if name == "simulation":
                self._local.trial = None

    def _wrap(self, fn, span_name):
        tracer = self

        if span_name == ESTIMATOR_SPAN:
            @functools.wraps(fn)
            def traced(estimator, *args, **kwargs):
                if isinstance(estimator, str):
                    label = estimator
                else:
                    label = getattr(estimator, "name", "custom")
                return tracer._call(ESTIMATOR_SPAN + label, fn, (estimator, *args), kwargs)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(fn, span_name, args, kwargs)
            return tracer._call(span_name, fn, args, kwargs)

        return traced

    def _count(self, fn, span_name, args, kwargs):
        """Work counters read from the call's arguments."""
        if span_name == "distributions.make_generator" and args:
            # A trial starts with its stream; later spans on this thread carry
            # the stream's (seed, stream_id) until the next one is made.
            rng = args[0]
            coords = (getattr(rng, "seed", None), getattr(rng, "stream_id", None))
            self._local.trial = (next(self._trial_seq), coords)
        elif span_name == "distributions.draw_sample" and len(args) >= 2:
            # Bytes of p read plus bytes of the int64 sample written.
            self._add("distributions.draw_sample.computed_bytes", 8 * (len(args[0]) + int(args[1])))
        elif span_name in ("oracle.exact_expected_kl", "oracle.exact_natural_regret"):
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            k = len(bound["p"])
            self._add("oracle.count_vectors", math.comb(int(bound["n"]) + k - 1, k - 1))

    def _add(self, counter, amount):
        with self._lock:
            self.counters[counter] += amount

    def install(self) -> None:
        for module_name, path, span_name in PATCHES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_metrics(self, mc_evals: int, workers: int) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics of one pass.

        mc_evals is the number of estimator evaluations the Monte Carlo calls
        asked for (trials x estimators); workers is the thread count used.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)

        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        busy = 0.0
        sim_wall = 0.0
        trials: dict[int, list[float]] = {}
        for span in self.spans:
            kids = children.get(id(span), ())
            covered = _union_length(span.start, span.end, kids)
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + (span.end - span.start - covered)
            if span.name == "simulation":
                sim_wall += span.end - span.start
                busy += sum(kid.end - kid.start for kid in kids)
            if span.trial is not None:
                bounds = trials.setdefault(span.trial[0], [span.start, span.end])
                bounds[0] = min(bounds[0], span.start)
                bounds[1] = max(bounds[1], span.end)

        est_calls = sum(v for k, v in calls.items() if k.startswith(ESTIMATOR_SPAN))
        est_self = sum(v for k, v in self_s.items() if k.startswith(ESTIMATOR_SPAN))
        values: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            if name.endswith(".calls"):
                values[name] = calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".self_s"):
                values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        values.update(self.counters)
        values["estimators.apply_estimator.calls"] = est_calls
        values["estimators.apply_estimator.self_s"] = est_self
        values["simulation.eval_ratio"] = est_calls / mc_evals if mc_evals else 0.0
        values["simulation.parallel_efficiency"] = busy / (sim_wall * workers) if sim_wall else 0.0
        values["simulation.trial_p50_us"] = (
            statistics.median(end - start for start, end in trials.values()) * 1e6 if trials else 0.0
        )
        return values


def _union_length(lo: float, hi: float, spans) -> float:
    """Length of [lo, hi] covered by the union of the given spans."""
    total = 0.0
    reach = lo
    for start, end in sorted((max(s.start, lo), min(s.end, hi)) for s in spans):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total
