"""Timing and counting wrappers around kscolour's public functions.

Only the traced run uses this module.  ``Tracer.install`` replaces every
public function of the layer modules in each kscolour namespace that
holds it (``bases.integrate``, ``area.sin_power_integral``, the package
root, ...), so internal calls are seen as well as the benchmark's own.
Each call becomes a span (id, request, name, start, end, parent) kept in
memory; per-name totals are accumulated as the spans close.
"""

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter

LAYERS = ("numerics", "area", "bases", "colouring", "montecarlo")
MC_ESTIMATORS = ("estimate_basis_fraction", "verify_constraints", "estimate_vector_fractions")
MC_DIMS = (3, 4, 8, 16)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.span_count = 0
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()  # inclusive seconds
        self.self_time: Counter = Counter()  # seconds minus child spans
        self.failures: Counter = Counter()
        self.evals_total = 0  # integrand evaluations inside integrate
        self.evals_under: Counter = Counter()  # evaluations inside each name's spans
        self.mc_samples: Counter = Counter()  # (function, dim) -> draws
        self.mc_busy: Counter = Counter()  # (function, dim) -> seconds
        self.chunks = 0
        self.request_id = -1
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._restore: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _open(self) -> tuple[int, int, float]:
        span_id = self.span_count
        self.span_count += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0.0])
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: int, start: float) -> float:
        end = time.perf_counter()
        _, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.busy[name] += dur
        self.self_time[name] += dur - child
        if span_id < self.span_cap:
            self.spans.append((span_id, self.request_id, name, start, end, parent))
        return dur

    def open_request(self, request_id: int) -> tuple[int, int, float]:
        """Open the root span of one benchmark request; its children share the request id."""
        self.request_id = request_id
        return self._open()

    def close_request(self, kind: str, frame: tuple[int, int, float]) -> None:
        self._close("request." + kind, *frame)

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        short = name.split(".", 1)[1]
        sig = inspect.signature(fn)
        QuadratureError = importlib.import_module("kscolour.numerics").QuadratureError

        def counted(f):
            def integrand(x):
                tracer.evals_total += 1
                return f(x)

            return integrand

        def wrapper(*args, **kwargs):
            if short == "integrate":
                if args:
                    args = (counted(args[0]),) + args[1:]
                else:
                    kwargs["f"] = counted(kwargs["f"])
            evals_before = tracer.evals_total
            frame = tracer._open()
            try:
                return fn(*args, **kwargs)
            except QuadratureError:
                tracer.failures[name] += 1
                raise
            finally:
                dur = tracer._close(name, *frame)
                tracer.evals_under[name] += tracer.evals_total - evals_before
                if short in MC_ESTIMATORS:
                    bound = sig.bind(*args, **kwargs).arguments
                    samples = bound["samples"]
                    tracer.chunks += math.ceil(samples / sys.modules["kscolour.montecarlo"].CHUNK_SAMPLES)
                    tracer.mc_samples[short, bound["dim"]] += samples
                    tracer.mc_busy[short, bound["dim"]] += dur

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Swap every public layer function for its wrapper, everywhere kscolour looks it up."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("kscolour." + layer)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "kscolour" and not mod_name.startswith("kscolour."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def mean_ms(self, name: str) -> float:
        """Mean inclusive milliseconds per call; 0 when never called."""
        return 1e3 * self.busy[name] / self.calls[name] if self.calls[name] else 0.0

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the kscolour modules, normalized per request."""
        per_req = 1.0 / max(requests, 1)
        integrate_calls = self.calls["numerics.integrate"]
        out = {
            "numerics.integrate.calls": (integrate_calls * per_req, "count/req"),
            "numerics.integrate.evals": (self.evals_total * per_req, "count/req"),
            "numerics.integrate.self_ms": (
                1e3 * self.self_time["numerics.integrate"] / integrate_calls if integrate_calls else 0.0,
                "ms",
            ),
            "numerics.integrate.failures": (self.failures["numerics.integrate"], "count"),
            "numerics.surface_ratio.calls": (self.calls["numerics.surface_ratio"] * per_req, "count/req"),
            "area.total_fraction.calls": (self.calls["area.total_fraction"] * per_req, "count/req"),
            "area.total_fraction.busy_ms": (self.mean_ms("area.total_fraction"), "ms"),
            "area.scan.busy_ms": (self.mean_ms("area.scan"), "ms"),
            "bases.basis_fraction_3d.busy_ms": (self.mean_ms("bases.basis_fraction_3d"), "ms"),
            "bases.basis_fraction_4d.busy_ms": (self.mean_ms("bases.basis_fraction_4d"), "ms"),
            "bases.basis_fraction_4d.evals": (
                self.evals_under["bases.basis_fraction_4d"] / self.calls["bases.basis_fraction_4d"]
                if self.calls["bases.basis_fraction_4d"]
                else 0.0,
                "count/call",
            ),
            "bases.orthosphere_white_integral.calls": (
                self.calls["bases.orthosphere_white_integral"] * per_req,
                "count/req",
            ),
            "colouring.colour_of.calls": (self.calls["colouring.colour_of"] * per_req, "count/req"),
            "colouring.colour_of.busy_ms": (self.mean_ms("colouring.colour_of"), "ms"),
            "colouring.basis_objects.busy_ms": (self.mean_ms("montecarlo.sample_basis"), "ms"),
        }
        total_samples = 0
        total_busy = 0.0
        for fn in MC_ESTIMATORS:
            for dim in MC_DIMS:
                busy = self.mc_busy[fn, dim]
                rate = self.mc_samples[fn, dim] / busy if busy > 0.0 else 0.0
                out[f"montecarlo.{fn}.N{dim}.samples_per_s"] = (rate, "1/s")
        for (fn, dim), busy in self.mc_busy.items():
            total_samples += self.mc_samples[fn, dim]
            total_busy += busy
        out["montecarlo.samples_per_s"] = (total_samples / total_busy if total_busy > 0.0 else 0.0, "1/s")
        out["montecarlo.chunks"] = (self.chunks * per_req, "count/req")
        out["trace.spans"] = (self.span_count * per_req, "count/req")
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans as JSON: one [id, request, name, start, end, parent] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "request", "name", "start_s", "end_s", "parent"],
                    "recorded": len(self.spans),
                    "dropped": self.span_count - len(self.spans),
                    "spans": self.spans,
                },
                fh,
            )
