"""In-memory span tracing of bistar's layers from outside the package.

`tracing` replaces public functions at the names where ``bistar.cli``,
``bistar.harness`` and ``bistar.fusion`` bind them with wrappers that
record one span per call: name, start, end, parent span and run id.
Nothing inside ``src/`` changes, and the originals are restored when
the ``with`` block ends.  A span's self time is its duration minus the
time of its child spans; `layer_metrics` turns the spans of a traced
run into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import csv
import functools
import inspect
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Names wrapped in each module.  A name missing from a module (renamed
# or removed by a later change) is skipped, so its metrics read 0.
HARNESS_NAMES = (
    "generate_slot",
    "matched_reference",
    "pulse_train",
    "build_paths",
    "propagate",
    "beamform",
    "null_steer_beamform",
    "project_out_stream",
    "cancel_direct_path",
    "music_aoa",
    "estimate_tdoa",
    "range_doppler",
    "model_based_measure",
    "locate_bistatic",
    "gdop",
    "compute_weights",
    "solve_multistatic",
)
FUSION_NAMES = ("gdop", "locate_bistatic")
CLI_NAMES = (
    "run_iso_range_sweep",
    "run_multistatic",
    "run_doppler",
    "run_gdop_map",
    "write_sweep_csv",
    "write_multistatic_csv",
    "write_doppler_csv",
    "write_range_doppler_csv",
    "write_gdop_map_csv",
)
RUN_SPANS = {f"harness.{n}" for n in CLI_NAMES if n.startswith("run_")}
WRITE_SPANS = {f"harness.{n}" for n in CLI_NAMES if n.startswith("write_")}


class Span:
    __slots__ = ("id", "parent", "run", "name", "start", "end", "child", "error",
                 "origin", "info")

    def __init__(self, span_id, parent, run, name):
        self.id, self.parent, self.run, self.name = span_id, parent, run, name
        self.start = self.end = self.child = 0.0
        self.error = ""
        self.origin = False
        self.info = None

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _propagate_info(signature, args, kwargs, result):
    params = signature.bind(*args, **kwargs).arguments["params"]
    return (round(params.bandwidth_hz / 1e6), result.pulses, result.samples.nbytes)


def _solve_info(signature, args, kwargs, result):
    return (result.iterations, result.converged)


OBSERVERS = {"propagate": _propagate_info, "solve_multistatic": _solve_info}


class Tracer:
    """Spans of one traced run, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.run = 0
        self.epoch = time.perf_counter()

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else -1
        span = Span(len(self.spans), parent, self.run, name)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, observe=None):
        """``fn`` recording a span named ``<module layer>.<function>``."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                # The innermost traced function an exception leaves is
                # the stage that raised it.
                span.origin = not getattr(exc, "_perfbench_traced", False)
                exc._perfbench_traced = True
                raise
            finally:
                self._close(span)
            if observe is not None:
                span.info = observe(signature, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write every span as one CSV row; times are seconds from the start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle, lineterminator="\n")
            out.writerow(["id", "parent", "run", "name", "start_s", "end_s", "self_s",
                          "error", "raised_here"])
            for s in self.spans:
                out.writerow([s.id, s.parent, s.run, s.name, f"{s.start - self.epoch:.9f}",
                              f"{s.end - self.epoch:.9f}", f"{s.self_time:.9f}",
                              s.error, int(s.origin)])


@contextmanager
def tracing(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    import bistar.cli
    import bistar.fusion
    import bistar.harness

    saved = []
    for module, names in (
        (bistar.harness, HARNESS_NAMES),
        (bistar.fusion, FUSION_NAMES),
        (bistar.cli, CLI_NAMES),
    ):
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            saved.append((module, name, fn))
            setattr(module, name, tracer.wrap(fn, OBSERVERS.get(name)))
    try:
        yield
    finally:
        for module, name, fn in reversed(saved):
            setattr(module, name, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    Times are mean self time per call; a stage with no call reads 0.
    Counts and computed bytes are per operation, so runs of different
    length compare.  ``propagate`` splits single-slot calls by
    bandwidth from pulse-train calls, which are 64 times larger.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def mean_self(scale, *names):
        group = calls(*names)
        return scale * statistics.fmean(s.self_time for s in group) if group else 0.0

    def refusals(name):
        return sum(1 for s in calls(name) if s.error == "DetectionError" and s.origin)

    propagate = calls("channel.propagate")
    slots = [s for s in propagate if s.info and s.info[1] == 1]
    trains = [s for s in propagate if s.info and s.info[1] > 1]
    tdoa = calls("estimation.estimate_tdoa")
    model = calls("estimation.model_based_measure")
    gdops = calls("gdop.gdop")
    solves = [s for s in calls("fusion.solve_multistatic") if s.info]
    runs = [s for s in spans if s.name in RUN_SPANS]
    writes = [s for s in spans if s.name in WRITE_SPANS]
    returned = sum(1 for s in tdoa + model if not s.error)
    m = {
        "waveform.generate_slot_ms": (mean_self(1e3, "waveform.generate_slot"), "ms"),
        "waveform.matched_reference_ms": (mean_self(1e3, "waveform.matched_reference"), "ms"),
        "waveform.pulse_train_ms": (mean_self(1e3, "waveform.pulse_train"), "ms"),
    }
    for mhz in (100, 400):
        group = [s.self_time for s in slots if s.info[0] == mhz]
        m[f"channel.propagate_ms_{mhz}mhz"] = (
            1e3 * statistics.fmean(group) if group else 0.0, "ms")
    m.update({
        "channel.propagate_train_ms": (
            1e3 * statistics.fmean(s.self_time for s in trains) if trains else 0.0, "ms"),
        "channel.propagate_calls": (len(propagate) / ops, "count"),
        "channel.propagate_bytes_computed": (
            sum(s.info[2] for s in propagate if s.info) / ops / 2**20, "MiB"),
        "channel.build_paths_us": (mean_self(1e6, "channel.build_paths"), "us"),
        "estimation.estimate_tdoa_ms": (mean_self(1e3, "estimation.estimate_tdoa"), "ms"),
        "estimation.music_aoa_ms": (mean_self(1e3, "estimation.music_aoa"), "ms"),
        "estimation.beamform_ms": (
            mean_self(1e3, "estimation.beamform", "estimation.null_steer_beamform"), "ms"),
        "estimation.project_out_stream_ms": (
            mean_self(1e3, "estimation.project_out_stream", "estimation.cancel_direct_path"),
            "ms"),
        "estimation.range_doppler_ms": (mean_self(1e3, "estimation.range_doppler"), "ms"),
        "estimation.model_based_measure_us": (
            mean_self(1e6, "estimation.model_based_measure"), "us"),
        "estimation.detection_refusals_music_aoa": (
            refusals("estimation.music_aoa") / ops, "count"),
        "estimation.detection_refusals_estimate_tdoa": (
            refusals("estimation.estimate_tdoa") / ops, "count"),
        "estimation.measure_ok_ratio": (
            _ratio(returned, len(propagate) + len(model)), "ratio"),
        "geometry.locate_bistatic_us": (mean_self(1e6, "geometry.locate_bistatic"), "us"),
        "geometry.locate_bistatic_calls": (
            len(calls("geometry.locate_bistatic")) / ops, "count"),
        "gdop.gdop_us": (mean_self(1e6, "gdop.gdop"), "us"),
        "gdop.calls": (len(gdops) / ops, "count"),
        "gdop.degenerate_ratio": (
            _ratio(sum(1 for s in gdops if s.error == "DegenerateGeometryError"), len(gdops)),
            "ratio"),
        "fusion.solve_multistatic_us": (mean_self(1e6, "fusion.solve_multistatic"), "us"),
        "fusion.compute_weights_us": (mean_self(1e6, "fusion.compute_weights"), "us"),
        "fusion.lm_iterations_mean": (
            _ratio(sum(s.info[0] for s in solves), len(solves)), "count"),
        "fusion.converged_ratio": (
            _ratio(sum(1 for s in solves if s.info[1]), len(solves)), "ratio"),
        "harness.self_s": (_ratio(sum(s.self_time for s in runs), ops), "s"),
        "harness.csv_write_ms": (1e3 * _ratio(sum(s.self_time for s in writes), ops), "ms"),
    })
    return m
