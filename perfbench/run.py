#!/usr/bin/env python3
"""Campaign benchmark for chan3d.

Runs one workload through the path ``chan3d run`` takes
(``config.parse_config`` -> ``config.validate`` -> ``campaign.run_campaign``)
as many times as fit in ``--seconds``, checks every campaign's output files,
and prints the metrics by name and unit. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload p1_tilt_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
first runs untraced reference campaigns, then traced ones at one worker
(see ``tracer.py``), and reports the per-layer metrics. Run from the root of
a chan3d checkout; outputs, spans and results go to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_DIR = BENCH_DIR / "workloads"

SETUP_REPS = 7
MIN_TIMED_REPS = 3
SUBPROCESS_TIMEOUT_S = 60

# CDF file prefix -> report column, per phase (the documented output layout).
CDF_COLUMNS = {
    1: {"cl": "cl_db", "gf": "gf_db"},
    2: {
        "cl": "cl_db", "gf": "gf_db", "asd": "asd", "asa": "asa", "esd": "esd",
        "esa": "esa", "ds": "ds", "l1": "l1", "l2": "l2",
    },
}
REPORT_HEADER = "ue_id site cell cl_db gf_db asd asa esd esa ds l1 l2"

# Per-layer groups named by the benchmark, as label patterns over the
# tracer's "<module>.<qualname>" labels.
GROUPS = {
    "lsp.los_state": ["lsp.LspSampler.los_state"],
    "lsp.link_lsps": ["lsp.LspSampler.link_lsps"],
    "lsp.pathloss_db": ["lsp.pathloss_db"],
    "lsp.prebuild_fields": ["lsp.LspSampler.prebuild_fields"],
    "rng.substream": ["rng.substream"],
    "antenna.tx_gain": ["antenna.composite_port_gain_db", "antenna.port_gain_itu_db"],
    "ssp.generate_cluster_set": ["ssp.generate_cluster_set"],
    "synth.synthesize": ["synth.synthesize"],
    "deploy.drop": ["deploy.drop_ues", "deploy.legacy_2d_drop"],
    "deploy.hex_layout": ["deploy.hex_layout"],
    "deploy.fold_to_nearest_image": ["deploy.fold_to_nearest_image"],
    "config.build": ["config.build_*", "config.tilt_weights_for"],
    "calib.metrics": [
        "calib.rsrp_*", "calib.attach", "calib.coupling_gain_db", "calib.geometry_factor_db",
        "calib.angular_spread_deg", "calib.delay_spread_s", "calib.top_eigenvalues",
    ],
    "calib.output": ["calib.empirical_cdf", "calib.write_report"],
}
LAYERS = ("antenna", "calib", "config", "deploy", "geom", "lsp", "rng", "ssp", "synth")


class OutputError(Exception):
    """A campaign's output files are missing, malformed or inconsistent."""


class Usage(Exception):
    """The benchmark cannot run here: bad arguments or no chan3d source tree."""


def workload_names() -> list:
    return sorted(p.stem for p in WORKLOAD_DIR.glob("*.ini"))


def load_chan3d():
    """Import chan3d from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "chan3d" / "__init__.py").is_file():
        raise Usage(f"no chan3d source tree at {SRC}; run from a chan3d checkout")
    sys.path.insert(0, str(SRC))
    import chan3d

    if Path(chan3d.__file__).resolve().parent != (SRC / "chan3d").resolve():
        raise Usage(f"imported chan3d from {chan3d.__file__}, not from {SRC}")
    return chan3d


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chan3d").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_config(template: Path, seed: int, work: Path) -> Path:
    """The workload's INI with the seed and output directory filled in."""
    work.mkdir(parents=True, exist_ok=True)
    ini = work / "campaign.ini"
    text = template.read_text().format(seed=seed, output_dir=str(work / "out"))
    ini.write_text(text)
    return ini


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import chan3d
from chan3d.config import parse_config, validate
validate(parse_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(ini: Path, reps: int) -> list:
    """Seconds for import + parse_config + validate, each in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(ini)],
            capture_output=True, text=True, env=env, cwd=str(ROOT),
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup subprocess failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def expected_ues(cfg) -> int:
    n_sites = 1 + 3 * cfg.layout.n_rings * (cfg.layout.n_rings + 1)
    return cfg.run.n_ue_per_cell * 3 * n_sites


def sweep_suffixes(cfg) -> list:
    return [f"dv{d_v:g}_tilt{tilt:g}" for d_v in cfg.d_v_sweep() for tilt in cfg.downtilt_sweep()]


def _read_report(path: Path, n_ues: int, n_cells: int) -> dict:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise OutputError(f"{path.name}: unexpected header")
    rows = [line.split(" ") for line in lines[1:]]
    if len(rows) != n_ues:
        raise OutputError(f"{path.name}: {len(rows)} rows for {n_ues} UEs")
    columns = REPORT_HEADER.split(" ")
    table = {name: [row[i] for row in rows] for i, name in enumerate(columns)}
    if any(len(row) != len(columns) for row in rows):
        raise OutputError(f"{path.name}: ragged rows")
    if table["ue_id"] != [str(i) for i in range(n_ues)]:
        raise OutputError(f"{path.name}: ue_id column is not 0..{n_ues - 1}")
    for site, cell in zip(table["site"], table["cell"]):
        if not 0 <= int(cell) < n_cells or int(site) != int(cell) // 3:
            raise OutputError(f"{path.name}: serving cell {cell} / site {site} out of range")
    return table


def _read_cdf(path: Path) -> tuple:
    values, probs = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        v, p = line.split(" ")
        values.append(v)
        probs.append(float(p))
    if not values:
        raise OutputError(f"{path.name}: no samples")
    floats = [float(v) for v in values]
    if any(b < a for a, b in zip(floats, floats[1:])):
        raise OutputError(f"{path.name}: values not sorted")
    if any(b <= a for a, b in zip(probs, probs[1:])) or probs[0] <= 0.0 or probs[-1] != 1.0:
        raise OutputError(f"{path.name}: probabilities do not rise to 1")
    return values, probs


def check_outputs(cfg, written: list) -> dict:
    """Check one campaign's files; return their digest and counts.

    Each sweep point must have exactly its CDF files and report. The report
    has one row per UE. Each CDF is sorted, its probabilities rise to 1, and
    its values are the sorted finite values of the report's column.
    """
    out_dir = Path(cfg.run.output_dir)
    prefixes = CDF_COLUMNS[cfg.run.phase]
    n_ues = expected_ues(cfg)
    n_cells = n_ues // cfg.run.n_ue_per_cell
    expected = set()
    for suffix in sweep_suffixes(cfg):
        expected.add(f"report_{suffix}.txt")
        expected.update(f"{p}_cdf_{suffix}.txt" for p in prefixes)
    present = {p.name for p in out_dir.iterdir()}
    returned = {Path(p).name for p in written}
    if present != expected or returned != expected or len(written) != len(expected):
        raise OutputError(
            f"file set mismatch: missing {sorted(expected - present)}, "
            f"unexpected {sorted(present - expected)}, returned {len(written)}"
        )

    stats = {"files": len(expected), "bytes": 0, "report_rows": 0, "cdf_rows": 0,
             "cdf_dropped": 0, "l2_rows": 0, "l2_zero": 0}
    h = hashlib.sha256()
    for name in sorted(expected):
        data = (out_dir / name).read_bytes()
        stats["bytes"] += len(data)
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    for suffix in sweep_suffixes(cfg):
        table = _read_report(out_dir / f"report_{suffix}.txt", n_ues, n_cells)
        stats["report_rows"] += n_ues
        for prefix, column in prefixes.items():
            values, _ = _read_cdf(out_dir / f"{prefix}_cdf_{suffix}.txt")
            finite = sorted((v for v in table[column] if math.isfinite(float(v))), key=float)
            if values != finite:
                raise OutputError(f"{prefix}_cdf_{suffix}.txt: values differ from report column {column}")
            stats["cdf_rows"] += len(values)
            stats["cdf_dropped"] += n_ues - len(values)
        if cfg.run.phase == 2:
            stats["l2_rows"] += n_ues
            stats["l2_zero"] += sum(float(v) == 0.0 for v in table["l2"])
    stats["digest"] = h.hexdigest()
    return stats


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Runner:
    """One benchmark process: the campaigns it ran and what they produced."""

    def __init__(self, chan3d, cfg):
        self.campaign = chan3d.campaign
        self.cfg = cfg
        self.attempted = 0
        self.failures: list = []
        self.digests: set = set()
        self.walls: list = []  # (workers, seconds) of every checked campaign

    def campaign_once(self, cfg=None) -> dict | None:
        """Run and check one campaign; None if it failed."""
        cfg = cfg or self.cfg
        out_dir = Path(cfg.run.output_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            written = self.campaign.run_campaign(cfg)
        except Exception as exc:  # a failed campaign is counted, not fatal
            self.failures.append(f"run_campaign raised {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        try:
            stats = check_outputs(cfg, written)
        except (OutputError, OSError, ValueError) as exc:
            self.failures.append(f"output check: {exc}")
            return None
        self.digests.add(stats["digest"])
        if len(self.digests) > 1:
            self.failures.append("output digest differs between repetitions")
            return None
        stats.update(wall_s=wall, cpu_s=cpu)
        self.walls.append((cfg.run.workers, wall))
        return stats

    def repeat(self, until: float, cfg=None, min_reps: int = 1) -> list:
        """Campaigns until the clock passes ``until`` and at least ``min_reps`` succeeded."""
        done = []
        while True:
            stats = self.campaign_once(cfg)
            if stats is None:
                if len(self.failures) >= 3:
                    return done
            else:
                done.append(stats)
            if time.perf_counter() >= until and len(done) >= min_reps:
                return done

    def check_history(self, workload: str, seed: int):
        """The digest must match earlier runs of this source, workload and seed."""
        if len(self.digests) != 1:
            return
        digest = next(iter(self.digests))
        path = OUT / "digests.json"
        history = json.loads(path.read_text()) if path.is_file() else {}
        key = f"{source_digest()}/{workload}/seed{seed}"
        previous = history.setdefault(key, digest)
        if previous != digest:
            self.failures.append(f"digest {digest[:12]} differs from an earlier run ({previous[:12]})")
            return
        path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")


def environment() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def summarize(name: str, samples: list, unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    line = f"{name} median {statistics.median(s):.6g} {unit} (n={len(s)}"
    if len(s) >= 20:
        pct = math.floor(100.0 * (1.0 - 10.0 / len(s)))
        line += f", p{pct} {s[min(len(s) - 1, math.ceil(pct / 100.0 * len(s)) - 1)]:.6g} {unit}"
    else:
        line += ", too few samples for a percentile above the median with 10 beyond it"
    return line + ")"


def run_untraced(runner: Runner, ini: Path, seconds: float) -> dict:
    """End-to-end metrics with tracing off."""
    setup = measure_setup(ini, SETUP_REPS)
    # No warm-up campaign: every `chan3d run` pays the first campaign's costs.
    reps = runner.repeat(time.perf_counter() + seconds, min_reps=MIN_TIMED_REPS)
    if not reps:
        return {}
    walls = [r["wall_s"] for r in reps]
    points = reps[0]["report_rows"]  # one report row per UE per sweep point
    print(summarize("wall_s", walls, "s"))
    print(summarize("setup_s", setup, "s"))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "ue_points_per_s": (points / statistics.median(walls), "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run_traced(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics from traced campaigns at one worker.

    A warm-up campaign runs first at the workload's worker count, so its
    digest is compared with the one-worker campaigns. Then untraced and
    traced one-worker campaigns alternate, so that both see the same machine
    load; the tracing overhead is the median difference within a pair.
    Returns the metrics and the trace: span sets, span labels, and calls and
    self seconds per ``<module>.<qualname>`` label, averaged per campaign.
    """
    import numpy as np

    import tracer

    start = time.perf_counter()
    runner.campaign_once()  # warm-up at the workload's worker count
    one_worker = copy.deepcopy(runner.cfg)
    one_worker.run.workers = 1

    counters = {"los_draws": 0, "los_true": 0, "rays": 0, "ray_taps": 0}

    def on_los_state(args, kwargs, result):
        counters["los_draws"] += 1
        counters["los_true"] += bool(result)

    def on_cluster_set(args, kwargs, result):
        counters["rays"] += result.aod.size

    def on_synthesize(args, kwargs, result):
        link, times = args[0], args[1]
        counters["ray_taps"] += (
            link.clusters.aod.size * link.tx.n_elements * link.rx.n_elements * np.size(times)
        )

    rec = tracer.SpanRecorder({
        "lsp.LspSampler.los_state": on_los_state,
        "ssp.generate_cluster_set": on_cluster_set,
        "synth.synthesize": on_synthesize,
    })
    runs, span_sets, pairs = [], [], []
    while len(runner.failures) < 3 and (time.perf_counter() < start + seconds or not pairs):
        reference = runner.campaign_once(one_worker)
        rec.reset()
        rec.install()
        try:
            stats = runner.campaign_once(one_worker)
        finally:
            rec.uninstall()
        if reference is None or stats is None:
            continue
        spans = rec.arrays()
        span_sets.append(spans)
        runs.append((stats, tracer.aggregate(spans, rec.labels, rec.label_module, stats["wall_s"])))
        pairs.append((reference["wall_s"], stats["wall_s"]))
    if not runs:
        return {}, {"span_sets": span_sets, "labels": rec.labels, "per_label": {}}

    n = len(runs)
    mean: dict = {}  # per traced campaign
    for stats, agg in runs:
        parts = {f"{layer}.{k}": agg["modules"].get(layer, {}).get(k, 0) for layer in LAYERS for k in ("calls", "self_s")}
        for name, patterns in GROUPS.items():
            g = tracer.group(agg["labels"], patterns)
            parts.update({f"{name}.calls": g["calls"], f"{name}.self_s": g["self_s"]})
        parts.update({k: stats[k] for k in ("wall_s", "report_rows", "cdf_rows", "cdf_dropped", "l2_rows", "l2_zero", "files", "bytes")})
        parts["campaign.self_s"] = agg["campaign_self_s"]
        for key, value in parts.items():
            mean[key] = mean.get(key, 0.0) + value / n
    mean.update({key: value / n for key, value in counters.items()})

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    metrics = {name: (mean[name], "count" if name.endswith(".calls") else "s")
               for name in mean if name.endswith((".calls", ".self_s")) and name != "campaign.self_s"}
    metrics.update({
        "ssp.rays": (mean["rays"], "count"),
        "synth.ray_taps": (mean["ray_taps"], "count"),
        "synth.ns_per_ray_tap": (1e9 * ratio(mean["synth.synthesize.self_s"], mean["ray_taps"]), "ns"),
        "lsp.los_draws": (mean["los_draws"], "count"),
        "lsp.los_count": (mean["los_true"], "count"),
        "lsp.los_frac": (ratio(mean["los_true"], mean["los_draws"]), "ratio"),
        "calib.report_rows": (mean["report_rows"], "count"),
        "calib.cdf_rows": (mean["cdf_rows"], "count"),
        "calib.cdf_dropped": (mean["cdf_dropped"], "count"),
        "calib.l2_rows": (mean["l2_rows"], "count"),
        "calib.l2_zero": (mean["l2_zero"], "count"),
        "calib.l2_zero_frac": (ratio(mean["l2_zero"], mean["l2_rows"]), "ratio"),
        "campaign.files": (mean["files"], "count"),
        "campaign.output_bytes": (mean["bytes"], "bytes"),
        "campaign.self_s": (mean["campaign.self_s"], "s"),
        "campaign.traced_wall_s": (mean["wall_s"], "s"),
        "campaign.untraced_wall_s": (statistics.median(u for u, _ in pairs), "s"),
        "campaign.trace_overhead_s": (statistics.median(t - u for u, t in pairs), "s"),
        "campaign.traced_runs": (n, "count"),
    })
    per_label = {
        label: {key: sum(agg["labels"][label][key] for _, agg in runs) / n for key in ("calls", "self_s")}
        for label in rec.labels
    }
    return metrics, {"span_sets": span_sets, "labels": rec.labels, "per_label": per_label}


def save_spans(path: Path, span_sets: list, labels: list):
    import numpy as np

    arrays = {"labels": np.array(labels, dtype=str)}
    for i, spans in enumerate(span_sets):
        for key, value in spans.items():
            arrays[f"run{i}_{key}"] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1, the acceptance seed)")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if args.workload not in workload_names():
            raise Usage(f"unknown workload {args.workload!r}; known: {', '.join(workload_names())}")
        if args.seed < 0 or args.seconds <= 0:
            raise Usage("--seed must be non-negative and --seconds positive")
        chan3d = load_chan3d()
    except Usage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from chan3d.config import parse_config, validate

    work = OUT / args.workload
    ini = write_config(WORKLOAD_DIR / f"{args.workload}.ini", args.seed, work)
    cfg = parse_config(str(ini))
    validate(cfg)
    runner = Runner(chan3d, cfg)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    trace = None
    try:
        if args.trace:
            metrics, trace = run_traced(runner, args.seconds)
        else:
            metrics = run_untraced(runner, ini, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        runner.attempted += 1
        runner.failures.append(f"{type(exc).__name__}: {exc}")
        metrics = {}
    runner.check_history(args.workload, args.seed)

    failed = len(runner.failures)
    attempted = max(runner.attempted, 1)
    for message in runner.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if len(runner.digests) == 1:
        print(f"output_sha256 {next(iter(runner.digests))}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, environment=env, digests=sorted(runner.digests),
                  campaign_walls=runner.walls, failures=runner.failures,
                  per_label=trace["per_label"] if trace else None)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    if trace is not None:
        save_spans(OUT / "trace" / f"{args.workload}-seed{args.seed}.npz", trace["span_sets"], trace["labels"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
