#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny campaigns (a few seconds).

    python3 perfbench/selftest.py

For a phase-1 and a phase-2 config with one UE per cell it checks that:
every end-to-end and per-layer metric named in BENCHMARK.json is produced
with its unit; the output checks pass on real outputs and reject corrupted
ones; and the layers' self times plus ``campaign.self_s`` add up to the
traced wall time. Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

import run

CONFIGS = ("tiny_p1", "tiny_p2")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        self.failed += not ok


def metric_units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def expect_metrics(checks: Checks, tag: str, metrics: dict, declared: dict):
    units = {name: unit for name, (_, unit) in metrics.items()}
    checks.expect(units == declared, f"{tag}: metric names and units match BENCHMARK.json")
    checks.expect(
        all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in metrics.values()),
        f"{tag}: every metric value is a finite number",
    )


def expect_rejected(checks: Checks, cfg, written: list, tag: str, corrupt):
    """Corrupt a copy of the outputs and expect the output check to fail."""
    out_dir = Path(cfg.run.output_dir)
    backup = out_dir.with_name("pristine")
    shutil.rmtree(backup, ignore_errors=True)
    shutil.copytree(out_dir, backup)
    try:
        corrupt(out_dir)
        try:
            run.check_outputs(cfg, written)
            rejected = False
        except run.OutputError:
            rejected = True
        checks.expect(rejected, f"{tag}: output check rejects {corrupt.__doc__}")
    finally:
        shutil.rmtree(out_dir)
        backup.rename(out_dir)


def swap_cdf_rows(out_dir: Path):
    """a CDF with two rows swapped"""
    path = sorted(out_dir.glob("gf_cdf_*.txt"))[0]
    lines = path.read_text().splitlines(keepends=True)
    lines[-1], lines[-2] = lines[-2], lines[-1]
    path.write_text("".join(lines))


def drop_report_row(out_dir: Path):
    """a report missing its last row"""
    path = sorted(out_dir.glob("report_*.txt"))[0]
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def remove_file(out_dir: Path):
    """a missing CDF file"""
    sorted(out_dir.glob("cl_cdf_*.txt"))[0].unlink()


def change_cdf_value(out_dir: Path):
    """a CDF value that differs from the report"""
    path = sorted(out_dir.glob("cl_cdf_*.txt"))[-1]
    lines = path.read_text().splitlines(keepends=True)
    value, prob = lines[-1].split(" ")
    lines[-1] = f"{float(value) + 1.0!r} {prob}"
    path.write_text("".join(lines))


def main() -> int:
    chan3d = run.load_chan3d()
    from chan3d.config import parse_config, validate

    checks = Checks()
    end_to_end = metric_units(BENCHMARK["end_to_end"])
    per_layer = metric_units(BENCHMARK["per_layer"])
    for name in CONFIGS:
        work = run.OUT / f"selftest-{name}"
        ini = run.write_config(run.BENCH_DIR / "selftest" / f"{name}.ini", 1, work)
        cfg = parse_config(str(ini))
        validate(cfg)

        runner = run.Runner(chan3d, cfg)
        metrics = run.run_untraced(runner, ini, seconds=0.1)
        expect_metrics(checks, f"{name} untraced", metrics, end_to_end)
        checks.expect(not runner.failures, f"{name} untraced: campaigns pass their output checks")

        written = chan3d.campaign.run_campaign(cfg)
        stats = run.check_outputs(cfg, written)
        checks.expect(stats["digest"] in runner.digests, f"{name}: digest repeats in a new campaign")
        for corrupt in (swap_cdf_rows, drop_report_row, remove_file, change_cdf_value):
            expect_rejected(checks, cfg, written, name, corrupt)

        runner = run.Runner(chan3d, cfg)
        t0 = time.perf_counter()
        metrics, trace = run.run_traced(runner, seconds=0.1)
        span_sets = trace["span_sets"]
        expect_metrics(checks, f"{name} traced", metrics, per_layer)
        checks.expect(not runner.failures, f"{name} traced: campaigns pass their output checks")
        checks.expect(bool(span_sets) and all(len(s["name"]) for s in span_sets), f"{name} traced: spans recorded")
        layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in run.LAYERS)
        wall = metrics["campaign.traced_wall_s"][0]
        total = layer_sum + metrics["campaign.self_s"][0]
        checks.expect(
            abs(total - wall) <= 1e-9 * max(1.0, wall),
            f"{name} traced: layer self times + campaign.self_s = traced wall ({total:.6f} vs {wall:.6f} s)",
        )
        checks.expect(
            metrics["campaign.self_s"][0] >= 0.0 and all(metrics[f"{l}.self_s"][0] >= 0.0 for l in run.LAYERS),
            f"{name} traced: self times are non-negative",
        )
        checks.expect(time.perf_counter() - t0 < 120.0, f"{name} traced: finished in time")
        if cfg.run.phase == 2:
            checks.expect(metrics["synth.ray_taps"][0] > 0 and metrics["ssp.rays"][0] > 0,
                          f"{name} traced: phase-2 work counters are positive")
    print(f"{checks.failed} check(s) failed" if checks.failed else "all checks passed")
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
