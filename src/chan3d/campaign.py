"""Batch campaign driver: drops, sweeps, metric computation, and file emission."""
from __future__ import annotations

import ctypes
import logging
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from . import calib
from .antenna import LinkEnd, element_amplitude, element_gain_db, fields_gain_db, port_factors
from .config import RunConfig, build_array, config_hash, validate
from .deploy import CELL_BEARINGS_DEG, Drop, drop_ues, hex_layout, wrap_basis
from .geom import SPEED_OF_LIGHT, rotation_z
from .lsp import SlowFading, slow_fading
from .rng import STREAM_DROP, STREAM_SSP, keyed_states, state_generators, substream
from .ssp import generate_cluster_set
from .synth import end_fields, synthesize, ue_links


log = logging.getLogger("chan3d")

# UEs per block of the phase-1 report pass: bounds its (UE, site, element) temporaries.
UE_BLOCK = 96


@dataclass
class _TxSetup:
    """Sweep points whose TX gains come from one pattern and element array:
    their sweep indices, and one end with their ports stacked in that order
    (for itu_port, one element at the origin), in phase 2 toward every cell.
    """

    points: list
    end: LinkEnd


@dataclass
class _CampaignContext:
    """Sweep-independent campaign state shared by the per-UE workers."""

    cfg: RunConfig
    cell_site: np.ndarray
    cell_bearing_rad: np.ndarray
    drop: Drop
    slow: SlowFading
    sweep: list
    wavelength: float
    times: np.ndarray
    tx_setups: list | None = None
    ssp_states: tuple | None = None
    ue_end: LinkEnd = field(default_factory=lambda: LinkEnd(np.zeros(1)))


def _tx_setups(ctx: _CampaignContext) -> list:
    """Group the sweep points by the pattern and array their TX gains come from.

    The element pattern does not move with the tilt, so the points of one d_v
    share one array and differ only in port weights. An itu_port pattern is
    tilted itself: each of its points is its own setup. Phase 2 turns the
    end's steps once per distinct cell bearing and gathers them to the cells.
    """
    itu, groups = ctx.cfg.antenna.pattern == "itu_port", {}
    for k, (d_v, tilt) in enumerate(ctx.sweep):
        _, points, tilts = groups.setdefault(k if itu else d_v, (d_v, [], []))
        points.append(k)
        tilts.append(tilt)
    setups = []
    for d_v, points, tilts in groups.values():
        end = build_array(ctx.cfg.antenna, d_v, ctx.wavelength, tilts)
        if ctx.cfg.run.phase == 2:
            bearings, cell = np.unique(ctx.cell_bearing_rad, return_inverse=True)
            turned = np.stack([end.steps @ rotation_z(b).T for b in bearings.tolist()])
            end = replace(end, bearing_rad=ctx.cell_bearing_rad, steps=turned[cell])
        setups.append(_TxSetup(points, end))
    return setups


def _tx_gains_db(ctx: _CampaignContext, setup: _TxSetup, local_az, zen) -> list:
    """TX gain over (UE, cell) toward each cell's LOS direction, for each point
    of the setup, from the cells' azimuths and the sites' zeniths (UE, site).
    Each point's port 0 is one column on the z axis: its factors read only
    k_z and run per (UE, site); the element amplitude is the only per-cell
    term, and the slant splits the field in power alone. itu_port's gain is
    its pattern's.
    """
    cells, end = ctx.cell_site, setup.end
    if ctx.cfg.antenna.pattern == "itu_port":
        return [np.asarray(element_gain_db(end.pattern, local_az, zen[:, cells]))]
    k_z = (2.0 * np.pi / ctx.wavelength) * np.cos(zen)
    factors = port_factors(end.lattice, end.weights[:, 0], k_z[..., None], end.steps[:, 2:].T)
    amp = element_amplitude(end.pattern, local_az, zen[:, cells])
    return [fields_gain_db(amp * f[:, cells], 0.0) for f in np.moveaxis(factors, -1, 0)]


def _serving_columns(rsrp, p_tx: float) -> tuple:
    """Serving cell, coupling gain and geometry factor of each row of (row, cell) RSRP."""
    serving = calib.attach(rsrp)
    own = np.take_along_axis(rsrp, serving[:, None], axis=1)[:, 0]
    return serving, own - p_tx, calib.geometry_factor_db(rsrp, serving)


def _phase1_reports(ctx: _CampaignContext) -> list:
    """Every sweep point's report columns, in one pass over UE blocks.

    Per block, the angles toward every cell are computed once and each TX
    setup's port-0 factors of all its points in one call over (UE, site).
    """
    p_tx = ctx.cfg.layout.p_tx_dbm
    slow, cells = ctx.slow, ctx.cell_site
    n = slow.pl.shape[0]
    reports = [
        dict(ue_id=np.arange(n), site=np.empty(n, dtype=int), cell=np.empty(n, dtype=int),
             cl_db=np.empty(n), gf_db=np.empty(n))
        for _ in ctx.sweep
    ]
    for start in range(0, n, UE_BLOCK):
        rows = slice(start, start + UE_BLOCK)
        local_az = slow.az_dep[rows][:, cells] - ctx.cell_bearing_rad  # the pattern wraps it
        zen = slow.zen_dep[rows]
        pl, sf = slow.pl[rows][:, cells], slow.sf[rows][:, cells]
        for setup in ctx.tx_setups:
            for k, gain in zip(setup.points, _tx_gains_db(ctx, setup, local_az, zen)):
                rsrp = calib.rsrp_db(p_tx, gain, ctx.cfg.antenna.ue_gain_dbi, pl, sf)
                serving, cl, gf = _serving_columns(rsrp, p_tx)
                report = reports[k]
                report["site"][rows], report["cell"][rows] = cells[serving], serving
                report["cl_db"][rows], report["gf_db"][rows] = cl, gf
    return reports


def _phase2_records(ctx: _CampaignContext, ue_index: int) -> list:
    """One UE's report rows (tuples in REPORT_COLUMNS order) at every sweep
    point, in sweep order.

    The UE's record holds the ray terms that no TX end enters: each cell's
    clusters, drawn in one batch from its row of the campaign's SSP stream
    states, and its site's LOS directions, Rice factor and slow fading. Each
    TX setup evaluates its fields toward all links' rays and LOS departures,
    and synthesizes the taps of all links at the ports of all its points in
    one call. Each sweep point takes its slice of the ports and every cell's
    RSRP in one call. The report's spreads are the serving link's."""
    cfg, slow, sites = ctx.cfg, ctx.slow, ctx.cell_site
    p_tx = cfg.layout.p_tx_dbm
    rsrp = np.empty((len(ctx.sweep), len(sites)))
    taps = [None] * len(ctx.sweep)
    los = slow.los_dirs[ue_index, sites]
    rngs = state_generators(half[ue_index] for half in ctx.ssp_states)
    batch = generate_cluster_set(slow.lsps[ue_index, sites], los[:, :2], los[:, 2:], cfg.ssp, rngs)
    ue = ue_links(
        ctx.ue_end, batch, los, slow.rice_k[ue_index, sites],
        (slow.pl[ue_index] + slow.sf[ue_index])[sites], cfg.run.carrier_hz,
        ctx.drop.velocity[ue_index], cfg.ssp.xpr_offdiag == "sqrt_inv_kappa",
        cfg.antenna.polarization_model,
    )
    model = cfg.antenna.polarization_model
    for setup in ctx.tx_setups:
        g_t = end_fields(setup.end, batch.aod, batch.zod, model)
        g_los = end_fields(setup.end, ue.los[:, 0], ue.los[:, 1], model)
        ports = synthesize(ue.toward(setup.end), ctx.times, g_t, g_los)
        by_point = ports.reshape(ports.shape[:3] + (len(setup.points), -1) + ports.shape[4:])
        for k, point_taps in zip(setup.points, np.moveaxis(by_point, 3, 0)):
            taps[k] = point_taps
            rsrp[k] = calib.rsrp_fast_fading_db(p_tx, taps[k]) + cfg.antenna.ue_gain_dbi

    serving, cl, gf = _serving_columns(rsrp, p_tx)
    spreads = {}
    for cell in set(serving.tolist()):
        cs = batch.link(cell)
        angles = (cs.aod, cs.aoa, cs.zod, cs.zoa)
        spreads[cell] = (*(calib.angular_spread_deg(a, cs.ray_powers) for a in angles),
                         calib.delay_spread_s(cs.delays_s, cs.cluster_powers))
    return [
        (ue_index, int(sites[cell]), cell, cl_db, gf_db, *spreads[cell],
         *calib.top_eigenvalues(taps[k][cell]))
        for k, (cell, cl_db, gf_db) in enumerate(zip(serving.tolist(), cl.tolist(), gf.tolist()))
    ]


# The campaign context of a pool worker process, set once by _init_worker.
_WORKER_CTX: _CampaignContext | None = None


def _keep_heap():
    """Pin glibc's mmap and trim thresholds: a phase-2 UE reuses the heap pages freed before it."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's ceiling for its dynamic one
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, twice that: the ratio of the dynamic rule


def _init_worker(ctx: _CampaignContext):
    global _WORKER_CTX
    _WORKER_CTX = ctx
    _keep_heap()


def _worker_records(ue_index: int) -> list:
    return _phase2_records(_WORKER_CTX, ue_index)


def _map_records(ctx: _CampaignContext, n_ues: int, workers: int) -> list:
    """Every UE's list of phase-2 report rows (one per sweep point), over a
    pool of min(workers, n_ues) processes when that is more than one.

    The pool's initializer hands each worker the context. Workers are forked
    where possible, else spawned (pickling the context once per worker); one
    that ends abruptly, killed say for memory, raises ChildProcessError.
    """
    _keep_heap()
    workers = min(workers, n_ues)
    if workers <= 1:
        return [_phase2_records(ctx, i) for i in range(n_ues)]
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        mp_ctx, started = multiprocessing.get_context("fork"), "forked"
    except ValueError:
        mp_ctx, started = multiprocessing.get_context("spawn"), "spawned"
    note = "fork start method unavailable: " if started == "spawned" else ""
    log.info(f"{note}{n_ues} UEs over {workers} {started} worker processes")
    chunk = max(1, n_ues // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=mp_ctx, initializer=_init_worker, initargs=(ctx,)
    ) as pool:
        try:
            return list(pool.map(_worker_records, range(n_ues), chunksize=chunk))
        except BrokenProcessPool:
            raise ChildProcessError("a worker process ended abruptly; try fewer --workers")


@contextmanager
def _open_atomic(path):
    """Open a temporary file next to path for writing; it replaces path only
    when the block completes, and is removed if the block raises."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_cdf(path, values, metric: str, cfg: RunConfig, d_v: float, tilt: float, digest: str):
    v, p = calib.empirical_cdf(values)
    with _open_atomic(path) as fh:
        fh.write(
            f"# chan3d cdf metric={metric} scenario={cfg.run.scenario} phase={cfg.run.phase}"
            f" seed={cfg.run.master_seed} drop={cfg.run.drop_mode}"
            f" dv={d_v!r} tilt_deg={tilt!r} config={digest}\n"
        )
        fh.write("# columns: value probability\n")
        fh.writelines(f"{val!r} {prob!r}\n" for val, prob in zip(v.tolist(), p.tolist()))
    return path


def run_campaign(cfg: RunConfig) -> list:
    """Execute the configured campaign and return the written file paths.

    Validates the config first and raises ConfigError before it touches the
    output directory. Drops UEs and computes their slow fading once (both
    are shared across sweep points for paired comparisons). Each (d_v,
    downtilt) sweep point then gets one CDF file per metric plus a per-UE
    report, both written from the point's report columns. The slow fading
    is one kernel call over the drop, its spatial fields spread over up to
    `workers` threads. Phase 1 then runs in this process, in one pass over
    UE blocks. Phase 2 computes all sweep points of one UE at a time, spread
    over up to `workers` pool processes (forked, else spawned), never more
    than there are UEs. Progress goes to the "chan3d" logger. Deterministic
    for a fixed (config, seed) at any worker count. Each file is written
    under a temporary name and renamed into place once complete, so an
    interrupted campaign leaves no half-written output.
    """
    validate(cfg)
    out_dir = cfg.run.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        open(probe, "w").close()
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {out_dir!r} is not writable: {exc}") from exc

    site_xy = hex_layout(cfg.layout.n_rings, cfg.layout.isd_m)
    n_bearings = len(CELL_BEARINGS_DEG)
    cell_site = np.repeat(np.arange(site_xy.shape[0]), n_bearings)
    cell_bearing = np.radians(np.tile(CELL_BEARINGS_DEG, site_xy.shape[0]))

    drop = drop_ues(
        cfg.run.n_ue_per_cell, site_xy, substream(cfg.run.master_seed, STREAM_DROP),
        cfg.layout.isd_m, cfg.layout.min_dist_2d_m, cfg.layout.ue_speed_kmh,
        three_d=cfg.run.drop_mode == "3d",
    )

    wrap = wrap_basis(cfg.layout.n_rings, cfg.layout.isd_m) if cfg.layout.wrap_around else None
    slow = slow_fading(cfg, range(len(drop)), drop.xyz, drop.indoor, site_xy, wrap)
    n_links, n_los = slow.los.size, int(np.count_nonzero(slow.los))
    log.info(f"slow fading: {n_links} (UE, site) links, {n_los} LOS ({n_los / n_links:.4f})")
    wavelength = SPEED_OF_LIGHT / cfg.run.carrier_hz
    digest = config_hash(cfg)
    ctx = _CampaignContext(
        cfg=cfg,
        cell_site=cell_site,
        cell_bearing_rad=cell_bearing,
        drop=drop,
        slow=slow,
        sweep=[(d_v, tilt) for d_v in cfg.d_v_sweep() for tilt in cfg.downtilt_sweep()],
        wavelength=wavelength,
        times=np.arange(cfg.run.n_time_samples) * cfg.run.time_step_s,
    )
    ctx.tx_setups = _tx_setups(ctx)
    if cfg.run.phase == 1:
        reports = _phase1_reports(ctx)
    else:
        ue_ids, cells = np.arange(len(drop))[:, None], np.arange(len(cell_site)) % n_bearings
        ctx.ssp_states = keyed_states(cfg.run.master_seed, STREAM_SSP, ue_ids, cell_site, cells)
        per_ue = _map_records(ctx, len(drop), cfg.run.workers)
        reports = [dict(zip(calib.REPORT_COLUMNS, zip(*rows))) for rows in zip(*per_ue)]

    written = []
    for k, (d_v, tilt) in enumerate(ctx.sweep):
        log.info(f"sweep point d_v={d_v:g} tilt={tilt:g} deg: {len(drop)} UEs")
        suffix = f"dv{d_v:g}_tilt{tilt:g}"
        for name in calib.REPORT_COLUMNS[3:] if cfg.run.phase == 2 else ("cl_db", "gf_db"):
            written.append(_write_cdf(
                os.path.join(out_dir, f"{name.removesuffix('_db')}_cdf_{suffix}.txt"),
                reports[k][name], name, cfg, d_v, tilt, digest,
            ))
        report_path = os.path.join(out_dir, f"report_{suffix}.txt")
        with _open_atomic(report_path) as fh:
            calib.write_report(reports[k], fh)
        written.append(report_path)
    return written
