"""bistar benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
A call is one call of the public entry point ``bistar.cli.main([...])``
in this process (``--workers 1`` where the command has workers); an
operation is the workload's fixed list of calls (workloads.py), with
inputs drawn from ``--seed``.  Every call's output files are checked;
a failed call or check counts in ``failed``, and ``correct`` also needs
each call kind's pooled acceptance band and a byte-identical rerun.

``--trace 0`` measures end to end with nothing wrapped: the median
operation rate over the operations timed in ``--seconds``, the peak
resident set, and the median set-up time of fresh interpreters.  Rate
and set-up time are scaled to baseline host speed by the reference
kernel timed around each operation and probe (reference.py); their
wall-clock values are printed on a line before the result.
``--trace 1`` runs one operation alternately plain and traced
(tracing.py) until ``--seconds`` pass, and reports the per-layer
metrics, the tracing overhead against the plain passes, and the spans
in ``perfbench/out/``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 7

# Ready means: package imported, arguments parsed, scenario loaded.
# The probe prints the import time alone for cli.import_s.
PROBE = """\
import sys, time
start = time.perf_counter()
import bistar.cli
imported = time.perf_counter() - start
args = bistar.cli.build_parser().parse_args(sys.argv[1:])
bistar.cli.load_scenario(args.scenario, args.bandwidth_mhz)
print(imported, flush=True)
"""


def _import_bistar():
    """Import the package from this checkout's ``src``, or exit 2."""
    if not (SRC / "bistar" / "cli.py").is_file():
        sys.exit(f"perfbench: no bistar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bistar.cli

    if SRC not in Path(bistar.cli.__file__).resolve().parents:
        sys.exit(f"perfbench: bistar was imported from {bistar.cli.__file__}, not {SRC}")
    return bistar.cli


def probe_setup(argv: list[str], count: int) -> tuple[float, float, float]:
    """Set-up of ``count`` fresh processes: the medians of their wall time
    to ready, of that time at baseline host speed, and of import time.

    The reference kernel is timed before the first probe and after each
    one, so every probe has a kernel time on either side.
    """
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    walls, scaled, imports = [], [], []
    reference.kernel()  # warm-up
    before = reference.time_kernel()
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            walls.append(time.perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe exited with {code}")
        imports.append(float(line))
        after = reference.time_kernel()
        scaled.append(reference.to_baseline(walls[-1], before, after))
        before = after
    return statistics.median(walls), statistics.median(scaled), statistics.median(imports)


def _digest(paths) -> str | None:
    if not all(p.exists() for p in paths):
        return None
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _operation(calls, rng, out: Path, index: int):
    """One operation: the inputs of every call, writing under ``out/index``."""
    directory = out / str(index)
    directory.mkdir(parents=True, exist_ok=True)
    return [call.operation(rng, directory) for call in calls]


class Runner:
    """Executes and checks calls, counting attempts and failures."""

    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, call, op) -> float | None:
        """Seconds the call took, or None when it or its check failed."""
        self.attempted += 1
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = self.cli.main(op.argv)
            elapsed = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
            call.check(op)
        except Exception as exc:  # every failure is counted and reported, not fatal
            self.fail(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
            return None
        return elapsed

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_run(self) -> bool:
        ok = True
        for call in self.calls:
            try:
                call.check_run()
            except Exception as exc:
                self.problems.append(f"pooled check of {call.named}: {exc}")
                ok = False
        return ok


def plain_run(cli, calls, rng, seconds, out, probes):
    runner = Runner(cli, calls)
    ops = [_operation(calls, rng, out, 0)]
    wall_setup_s, setup_s, _ = probe_setup(ops[0][0].argv, probes)

    # The first operation runs cold, as a one-shot CLI call does; the
    # median keeps it from dominating.  Each operation is timed between
    # two reference kernel times (reference.py).
    rates, wall_rates, call_times = [], [], [[] for _ in calls]
    kernel_s = [reference.time_kernel()]
    start = time.perf_counter()
    while True:
        times = [runner.run(call, op) for call, op in zip(calls, ops[-1])]
        kernel_s.append(reference.time_kernel())
        if None not in times:
            rates.append(1.0 / reference.to_baseline(sum(times), *kernel_s[-2:]))
            wall_rates.append(1.0 / sum(times))
            for t, acc in zip(times, call_times):
                acc.append(t)
        if time.perf_counter() - start >= seconds:
            break
        ops.append(_operation(calls, rng, out, len(ops)))

    # Determinism: the first operation again, byte for byte.
    for call, op in zip(calls, ops[0]):
        before = _digest(op.outputs)
        if runner.run(call, op) is not None and _digest(op.outputs) != before:
            runner.fail(f"rerun with the same seed wrote different bytes: {op.argv}")
    pooled_ok = runner.check_run()

    metrics = {
        "ops_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"{len(rates)} timed operations; wall clock: ops_per_s = "
          f"{statistics.median(wall_rates) if wall_rates else 0.0:.6g} 1/s, setup_s = "
          f"{wall_setup_s:.6g} s; reference kernel median "
          f"{statistics.median(kernel_s):.6g} s", flush=True)
    for call, acc in zip(calls, call_times):
        if acc:
            t = statistics.median(acc)
            if "_per_s" in call.named:
                print(f"{call.named} = {call.units / t:.6g} {call.work}/s", flush=True)
            else:
                print(f"{call.named} = {t:.6g} s", flush=True)
    return runner, pooled_ok, metrics


def traced_run(cli, calls, rng, seconds, out, probes, seed, name):
    import tracing

    runner = Runner(cli, calls)
    op = _operation(calls, rng, out, 0)
    _, _, import_s = probe_setup(op[0].argv, probes)
    for call, call_op in zip(calls, op):
        runner.run(call, call_op)  # warm-up, untimed

    tracer = tracing.Tracer()
    ratios, passes = [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = sum(runner.run(call, call_op) or 0.0 for call, call_op in zip(calls, op))
        digests = [_digest(call_op.outputs) for call_op in op]
        traced = 0.0
        with tracing.tracing(tracer):
            tracer.run = passes
            for call, call_op, digest in zip(calls, op, digests):
                with tracer.span("cli.main"):
                    traced += runner.run(call, call_op) or 0.0
                if _digest(call_op.outputs) != digest:
                    runner.fail(f"traced call wrote different bytes: {call_op.argv}")
        passes += 1
        if plain > 0.0:
            ratios.append(traced / plain)
    pooled_ok = runner.check_run()

    metrics = tracing.layer_metrics(tracer.spans, passes)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    spans_path = OUT / f"trace-{name}-seed{seed}.csv"
    tracer.write(spans_path)
    print(f"{passes} traced passes; {len(tracer.spans)} spans in "
          f"{spans_path.relative_to(ROOT)}", flush=True)
    return runner, pooled_ok, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input and probe set-up once (smoke test)")
    args = parser.parse_args(argv)

    cli = _import_bistar()
    import workloads

    table = workloads.build(tiny=args.tiny)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    calls = table[args.workload]
    rng = random.Random(args.seed)
    out = OUT / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    probes = 1 if args.tiny else SETUP_PROBES
    try:
        if args.trace:
            runner, pooled_ok, metrics = traced_run(
                cli, calls, rng, args.seconds, out, min(probes, 3), args.seed, args.workload)
        else:
            runner, pooled_ok, metrics = plain_run(cli, calls, rng, args.seconds, out, probes)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and pooled_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
