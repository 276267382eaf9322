"""Workload definitions: CLI calls per operation and their output checks.

A workload's operation is a fixed list of calls of ``bistar.cli.main``,
one per `Call` kind; the seed of the run draws every call's inputs.
Each kind checks every call's output files (structure and per-row
bands) and, at the end of the run, the acceptance-gate band over the
rows pooled from all of the run's calls.  The gate bands live in
``tests/test_acceptance.py``; they are repeated here so a perf change
that reorders floating point is judged on bands, not bytes.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_STATUSES = {"ok", "excluded", "fail:detect", "fail:degenerate"}
MULTISTATIC_STATUSES = {"ok", "excluded", "fail:no_usable_pair", "fail:solver"}
GDOP_BEST = {"mode1", "mode2", "degenerate"}

# Sample rates of the two presets' bandwidths (bistar.config._SAMPLE_RATES).
SAMPLE_RATE_HZ = {100: 122.88e6, 400: 491.52e6}


class CheckError(Exception):
    """An operation's output or a run's pooled output is out of band."""


def _number(text: str) -> float:
    """Parse a CSV value; blank is NaN.

    Summary lines of model-engine sweeps print numpy scalars by repr,
    e.g. ``np.float64(3.2)``; the wrapper is accepted so the check
    judges the value.
    """
    text = text.strip()
    if not text:
        return math.nan
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def read_table(path: Path) -> tuple[list[dict[str, str]], dict[str, float]]:
    """CSV rows as dicts plus the trailing ``# key = value`` summary."""
    body, summary = [], {}
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                summary[key.strip()] = _number(value)
            else:
                body.append(line)
    return list(csv.DictReader(body)), summary


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _ok_rows(path: Path, points: int, statuses: set[str]) -> list[dict[str, str]]:
    """Check a contour table's row count and statuses; return its ok rows."""
    rows, summary = read_table(path)
    _require(len(rows) == points, f"{len(rows)} rows for {points} points")
    seen = {r["status"] for r in rows}
    _require(seen <= statuses, f"unknown statuses {seen - statuses}")
    ok = [r for r in rows if r["status"] == "ok"]
    _require(summary.get("points") == points, "summary point count")
    _require(summary.get("ok_points") == len(ok), "summary ok count")
    return ok


@dataclass
class Operation:
    """Arguments of one CLI call and the files it writes."""

    argv: list[str]
    outputs: list[Path]


@dataclass
class Call:
    """One kind of CLI call with its checks.

    ``units`` of ``work`` is what one call completes; ``named`` is the
    issue's name for this kind's rate, printed beside the JSON result.
    """

    named: str
    work: str
    units: int
    pooled: list = field(default_factory=list)

    def operation(self, rng: random.Random, out: Path) -> Operation:
        raise NotImplementedError

    def check(self, op: Operation) -> None:
        """Check one call's outputs; keep what the run-level band needs."""
        raise NotImplementedError

    def check_run(self) -> None:
        """Check the acceptance band over everything pooled so far."""


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


class SignalContour(Call):
    """Signal-level contour sweep of scenario3 at one bandwidth (c2, c3)."""

    def __init__(self, mhz: int, points: int, tiny: bool):
        self.mhz = mhz
        super().__init__(f"signal_points_per_s_{mhz}mhz", "contour points",
                         8 if tiny else points)

    def operation(self, rng, out):
        csv_path = out / f"sweep{self.mhz}.csv"
        argv = [
            "sweep", "--scenario", "scenario3", "--bandwidth-mhz", str(self.mhz),
            "--points", str(self.units), "--seed", _seed(rng), "--workers", "1",
            "--out", str(csv_path),
        ]
        return Operation(argv, [csv_path])

    def check(self, op):
        step_ns = 1e9 / SAMPLE_RATE_HZ[self.mhz]
        for r in _ok_rows(op.outputs[0], self.units, SWEEP_STATUSES):
            lags = _number(r["tdoa_meas_ns"]) / step_ns
            # The matched filter reports whole sample lags (c2 lattice).
            _require(abs(lags - round(lags)) < 1e-6, f"TDOA {lags} lags is off the lattice")
            _require(math.isfinite(_number(r["err_mode1_m"])), "non-finite error")
            self.pooled.append(
                (abs(_number(r["tdoa_err_ns"])), abs(_number(r["aoa_err_deg"])))
            )

    def check_run(self):
        _require(bool(self.pooled), "no ok contour points to check")
        tdoa = sum(p[0] for p in self.pooled) / len(self.pooled)
        aoa = sum(p[1] for p in self.pooled) / len(self.pooled)
        # c3: scenario3 centres 3.55 ns +-50 % at 100 MHz, <= 0.5 ns at 400 MHz.
        if self.mhz == 100:
            _require(0.5 * 3.55 <= tdoa <= 1.5 * 3.55, f"c3 mean TDOA error {tdoa:.3f} ns")
        else:
            _require(tdoa <= 0.5, f"c3 mean TDOA error {tdoa:.3f} ns")
        _require(aoa < 1.0, f"c3 mean AoA error {aoa:.3f} deg")


class DopplerTrain(Call):
    """64-pulse Doppler run of scenario3 (c7)."""

    def __init__(self, tiny: bool):
        self.pulses = 8 if tiny else 64
        super().__init__("doppler_run_s", "Doppler runs", 1)

    def operation(self, rng, out):
        csv_path, map_path = out / "doppler.csv", out / "rdmap.csv"
        argv = [
            "doppler", "--scenario", "scenario3", "--speed-mps", "0.2",
            "--theta2-deg", "60", "--pulses", str(self.pulses), "--seed", _seed(rng),
            "--out", str(csv_path), "--map-out", str(map_path),
        ]
        return Operation(argv, [csv_path, map_path])

    def check(self, op):
        rows, _ = read_table(op.outputs[0])
        _require(len(rows) == 1, "Doppler CSV must hold one row")
        row = {k: _number(v) for k, v in rows[0].items()}
        _require(all(math.isfinite(v) for v in row.values()), "non-finite Doppler field")
        # c7: speed error at most 0.05 m/s (64 pulses, 0.2 m/s mover).
        _require(row["speed_err_mps"] <= 0.05, f"c7 speed error {row['speed_err_mps']}")
        with open(op.outputs[1], newline="") as handle:
            grid = list(csv.reader(handle))
        _require(len(grid[0]) == 1 + 4 * self.pulses, "range-Doppler map width")
        _require(2 <= len(grid) <= 257, "range-Doppler map height")


class ModelSweep(Call):
    """Model-engine sweep of scenario3 at 100 MHz with many trials (c5)."""

    def __init__(self, points: int, trials: int, tiny: bool):
        self.points = 8 if tiny else points
        self.trials = 20 if tiny else trials
        super().__init__("model_trials_per_s", "point-trials", self.points * self.trials)

    def operation(self, rng, out):
        csv_path = out / "model.csv"
        argv = [
            "sweep", "--scenario", "scenario3", "--bandwidth-mhz", "100",
            "--engine", "model", "--points", str(self.points),
            "--trials", str(self.trials), "--seed", _seed(rng), "--workers", "1",
            "--out", str(csv_path),
        ]
        return Operation(argv, [csv_path])

    def check(self, op):
        for r in _ok_rows(op.outputs[0], self.points, SWEEP_STATUSES):
            m1, m2 = _number(r["err_mode1_m"]), _number(r["err_mode2_m"])
            rms1, rms2 = _number(r["err_rms_mode1_m"]), _number(r["err_rms_mode2_m"])
            _require(0.0 <= m1 <= rms1 + 1e-12 and 0.0 <= m2 <= rms2 + 1e-12,
                     "mean error exceeds RMS error")
            self.pooled.append((m1, m2))

    def check_run(self):
        _require(bool(self.pooled), "no ok contour points to check")
        m1 = sum(p[0] for p in self.pooled) / len(self.pooled)
        m2 = sum(p[1] for p in self.pooled) / len(self.pooled)
        # c5 @100 MHz: mode1 in [0.3, 0.9] m, mode2 in [0.315, 0.943] m.
        _require(0.3 <= m1 <= 0.9, f"c5 mode1 mean error {m1:.3f} m")
        _require(0.315 <= m2 <= 0.943, f"c5 mode2 mean error {m2:.3f} m")


class GdopMap(Call):
    """Dilution-of-precision map of scenario2 over a seed-drawn grid."""

    def __init__(self, cells: int, tiny: bool):
        self.n = 9 if tiny else cells
        super().__init__("gdop_cells_per_s", "map cells", self.n * self.n)

    def operation(self, rng, out):
        csv_path = out / "gdop.csv"
        # The y range is symmetric so the map must mirror across the
        # baseline, which lies on the x axis.
        x_min = -rng.uniform(25.0, 35.0)
        x_max = rng.uniform(25.0, 40.0)
        y_max = rng.uniform(25.0, 35.0)
        argv = [
            "gdop-map", "--scenario", "scenario2", "--seed", _seed(rng),
            "--x-min", repr(x_min), "--x-max", repr(x_max), "--nx", str(self.n),
            "--y-min", repr(-y_max), "--y-max", repr(y_max), "--ny", str(self.n),
            "--out", str(csv_path),
        ]
        return Operation(argv, [csv_path])

    def check(self, op):
        rows, _ = read_table(op.outputs[0])
        _require(len(rows) == self.n * self.n, f"{len(rows)} cells for {self.n}^2")
        cells = {}
        for r in rows:
            _require(r["best_mode"] in GDOP_BEST, f"unknown best_mode {r['best_mode']}")
            g1, g2 = _number(r["gdop_mode1_m"]), _number(r["gdop_mode2_m"])
            if r["best_mode"] == "degenerate":
                _require(math.isnan(g1) and math.isnan(g2), "degenerate cell with a value")
            elif r["best_mode"] == "mode1":
                _require(math.isnan(g2) or g1 <= g2, "mode1 is not the smaller dilution")
            else:
                _require(math.isnan(g1) or g2 < g1, "mode2 is not the smaller dilution")
            cells[(r["x_m"], _number(r["y_m"]))] = (g1, g2)
        xs = sorted({k[0] for k in cells}, key=float)
        ys = sorted({k[1] for k in cells})
        _require(len(xs) == self.n and len(ys) == self.n, "grid is not nx by ny")
        for x in xs:
            for lo, hi in zip(ys, reversed(ys)):
                _require(abs(lo + hi) < 1e-9, "y grid is not symmetric")
                a, b = cells[(x, lo)], cells[(x, hi)]
                for u, v in zip(a, b):
                    same = (math.isnan(u) and math.isnan(v)) or math.isclose(
                        u, v, rel_tol=1e-6, abs_tol=1e-12
                    )
                    _require(same, f"map is not mirror-symmetric at x={x}, y={lo}")


class MultistaticFusion(Call):
    """Model-engine multistatic fusion of scenario3 at 400 MHz (c6)."""

    def __init__(self, points: int, trials: int, tiny: bool):
        self.points = 8 if tiny else points
        self.trials = 4 if tiny else trials
        super().__init__("fused_trials_per_s", "fused trials", self.points * self.trials)

    def operation(self, rng, out):
        csv_path = out / "fused.csv"
        argv = [
            "multistatic", "--scenario", "scenario3", "--bandwidth-mhz", "400",
            "--engine", "model", "--points", str(self.points),
            "--trials", str(self.trials), "--seed", _seed(rng), "--workers", "1",
            "--out", str(csv_path),
        ]
        return Operation(argv, [csv_path])

    def check(self, op):
        for r in _ok_rows(op.outputs[0], self.points, MULTISTATIC_STATUSES):
            trials, wins = int(r["trials"]), int(r["fused_wins"])
            _require(1 <= trials <= self.trials and 0 <= wins <= trials, "trial counts")
            _require(1 <= int(r["pairs_used"]) <= 3, "pairs used")
            self.pooled.append((_number(r["err_fused_m"]), wins, trials))

    def check_run(self):
        _require(bool(self.pooled), "no ok contour points to check")
        fused = sum(p[0] for p in self.pooled) / len(self.pooled)
        wins = sum(p[1] for p in self.pooled) / sum(p[2] for p in self.pooled)
        # c6 @400 MHz: fused error at most 0.05 m, fused wins at least 80 %.
        _require(fused <= 0.05, f"c6 fused error {fused:.4f} m")
        _require(wins >= 0.80, f"c6 fused win fraction {wins:.3f}")


def build(tiny: bool = False) -> dict[str, list[Call]]:
    """Each workload's calls by workload name; ``tiny`` shrinks every input.

    BENCHMARK.json says why each workload exists; perfbench/README.md
    maps each to the layers it stresses.
    """
    return {
        "signal_chain": [
            SignalContour(100, 20, tiny), SignalContour(400, 8, tiny), DopplerTrain(tiny),
        ],
        "model_engine": [
            ModelSweep(36, 100, tiny), GdopMap(61, tiny), MultistaticFusion(36, 10, tiny),
        ],
    }
