"""Batch campaign driver: drops, sweeps, metric computation, and file emission."""
from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np

from . import calib
from .antenna import column_heights, column_sums, element_amplitude, element_gain_db, fields_gain_db
from .config import RunConfig, build_array, build_tx_pattern, config_hash, validate
from .deploy import (
    CELL_BEARINGS_DEG,
    Drop,
    drop_ues,
    fold_to_nearest_image,
    hex_layout,
    wrap_basis,
)
from .geom import SPEED_OF_LIGHT, per_element, pow10, rotation_z, wrap_azimuth
from .lsp import SlowFading, slow_fading
from .rng import STREAM_DROP, STREAM_SSP, keyed_generators, substream
from .ssp import generate_cluster_set
from .synth import LinkEnd, UeLinks, end_fields, synthesize, to_ports, ue_links


log = logging.getLogger("chan3d")

# UEs per block of the phase-1 report pass: bounds its (UE, site, element) temporaries.
UE_BLOCK = 96


@dataclass
class _TxSetup:
    """Sweep points whose TX gains come from one pattern and element array.

    points lists their sweep indices and arrays the array of each, with the
    point's port weights (for itu_port, one element at the origin). heights
    are port 0's column_heights, None for itu_port, whose phase-1 gain is its
    pattern's; ends the per-cell TX link ends that phase 2 synthesizes for.
    """

    pattern: object
    points: list
    arrays: list
    heights: np.ndarray | None = None
    ends: list | None = None


@dataclass
class _CampaignContext:
    """Sweep-independent campaign state shared by the per-UE workers."""

    cfg: RunConfig
    site_xy: np.ndarray
    cell_site: np.ndarray
    cell_bearing_rad: np.ndarray
    drop: Drop
    slow: SlowFading
    sweep: list
    wavelength: float
    times: np.ndarray
    wrap: np.ndarray | None = None
    tx_setups: list | None = None
    ue_end: LinkEnd = field(default_factory=lambda: LinkEnd(np.zeros((1, 3)), np.zeros(1)))


def _tx_setups(ctx: _CampaignContext) -> list:
    """Group the sweep points by the pattern and array their TX gains come from.

    The element pattern does not move with the tilt, so the points of one d_v
    share one array and differ only in port weights. An itu_port pattern is
    tilted itself: each of its points is its own setup.
    """
    antenna, itu = ctx.cfg.antenna, ctx.cfg.antenna.pattern == "itu_port"
    setups = {}
    for k, (d_v, tilt) in enumerate(ctx.sweep):
        s = setups.setdefault(k if itu else d_v, _TxSetup(build_tx_pattern(antenna, tilt), [], []))
        s.points.append(k)
        s.arrays.append(build_array(antenna, d_v, ctx.wavelength, tilt))
    for s in setups.values():
        s.heights = None if itu else column_heights(s.arrays[0], 0)
        if ctx.cfg.run.phase == 2:
            xyz, slants = s.arrays[0].element_positions, s.arrays[0].slant_rad
            s.ends = [LinkEnd(xyz @ rotation_z(b).T, slants, s.pattern, b)
                      for b in ctx.cell_bearing_rad.tolist()]
    return list(setups.values())


def _tx_gains_db(ctx: _CampaignContext, setup: _TxSetup, local_az, zen) -> list:
    """TX gain over (UE, cell) toward each cell's LOS direction, for each point
    of the setup, from the cells' azimuths and the sites' zeniths (UE, site).
    Port 0's response phases and weighted sums depend on the zenith alone, so
    they run per (UE, site); the element amplitude is the only per-cell term.
    """
    cells = ctx.cell_site
    if setup.heights is None:
        return [np.asarray(element_gain_db(setup.pattern, local_az, zen[:, cells]))]
    amp = element_amplitude(setup.pattern, local_az, zen[:, cells])
    sums = column_sums(setup.heights, ctx.wavelength, zen, setup.arrays, 0)
    return [fields_gain_db(amp * v[:, cells], amp * h[:, cells]) for v, h in sums]


def _serving_columns(rsrp, p_tx: float) -> tuple:
    """Serving cell, coupling gain and geometry factor of each row of (row, cell) RSRP."""
    serving = calib.attach(rsrp)
    own = np.take_along_axis(rsrp, serving[:, None], axis=1)[:, 0]
    return serving, own - p_tx, calib.geometry_factor_db(rsrp, serving)


def _phase1_reports(ctx: _CampaignContext) -> list:
    """Every sweep point's report columns, in one pass over UE blocks.

    Per block, the angles toward every cell are computed once and each TX
    setup's response phases once per (UE, site); each sweep point applies
    only its port weights.
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


def _ue_record(ctx: _CampaignContext, ue_index: int) -> UeLinks:
    """The UE's links to every cell as one UeLinks record. The LOS directions,
    (azimuth, zenith) pairs with the arrival the reversed departure, and the
    Rice factors (0 where NLOS) are those of the cell's site, by scalar libm
    per site over one norm per offset (array forms round differently); each
    cell's clusters are drawn from its own (UE, site, cell) stream, in one batch."""
    cfg, slow, sites = ctx.cfg, ctx.slow, ctx.cell_site
    deltas = ctx.drop.xyz[ue_index, :2] - ctx.site_xy
    if ctx.wrap is not None:
        deltas = fold_to_nearest_image(deltas, ctx.wrap)
    dz = ctx.drop.xyz[ue_index, 2] - cfg.layout.bs_height_m
    norms = np.array([np.linalg.norm(np.append(delta2d, dz)) for delta2d in deltas])
    dep_az = wrap_azimuth(per_element(math.atan2, deltas[:, 1], deltas[:, 0]))
    zen = per_element(math.acos, np.clip(dz / norms, -1.0, 1.0))
    k_over_10 = np.where(slow.los[ue_index], slow.lsps[ue_index, :, 1] / 10.0, -np.inf)
    rice_k = pow10(k_over_10, "the LOS Rice-factor draw overflowed: K = 10**(k/10) exceeds "
                   "the float range; lower the [lsp_los] k_mu_db or k_sigma_db")
    los = np.column_stack([dep_az, zen, wrap_azimuth(dep_az + math.pi), math.pi - zen])[sites]
    cells = np.arange(len(sites)) % len(CELL_BEARINGS_DEG)
    rngs = keyed_generators(cfg.run.master_seed, STREAM_SSP, ue_index, sites, cells)
    batch = generate_cluster_set(slow.lsps[ue_index, sites], los[:, :2], los[:, 2:], cfg.ssp, rngs)
    return ue_links(
        ctx.ue_end, batch, los, rice_k[sites].tolist(),
        (slow.pl[ue_index] + slow.sf[ue_index])[sites].tolist(), cfg.run.carrier_hz,
        ctx.drop.velocity[ue_index], cfg.ssp.xpr_offdiag == "sqrt_inv_kappa",
        cfg.antenna.polarization_model,
    )


def _phase2_records(ctx: _CampaignContext, ue_index: int) -> list:
    """One UE's report rows (tuples in REPORT_COLUMNS order) at every sweep
    point, in sweep order.

    The UE's record holds the ray terms that no TX end enters; each TX setup
    evaluates its fields toward all links' rays and LOS departures, and each
    link sums its views of both. The setup stacks the links' element taps by
    cell; each of its sweep points maps them to ports and takes every cell's
    RSRP in one call each. The report's spreads are the serving link's.
    """
    p_tx = ctx.cfg.layout.p_tx_dbm
    sites = ctx.cell_site.tolist()
    rsrp = np.empty((len(ctx.sweep), len(sites)))
    taps = [None] * len(ctx.sweep)
    ue = _ue_record(ctx, ue_index)
    batch, model = ue.clusters, ue.polarization_model
    for setup in ctx.tx_setups:
        g_t = end_fields(setup.ends, batch.aod, batch.zod, model)
        g_los = end_fields(setup.ends, ue.los[:, 0], ue.los[:, 1], model)
        elements = np.stack([synthesize(ue.link(c, end), ctx.times, g_t[c], g_los[c])
                             for c, end in enumerate(setup.ends)])
        for k, array in zip(setup.points, setup.arrays):
            taps[k] = to_ports(elements, array.weights)
            rsrp[k] = calib.rsrp_fast_fading_db(p_tx, taps[k]) + ctx.cfg.antenna.ue_gain_dbi

    serving, cl, gf = _serving_columns(rsrp, p_tx)
    spreads = {}
    for cell in set(serving.tolist()):
        cs = batch.link(cell)
        angles = (cs.aod, cs.aoa, cs.zod, cs.zoa)
        spreads[cell] = (*(calib.angular_spread_deg(a, cs.ray_powers) for a in angles),
                         calib.delay_spread_s(cs.delays_s, cs.cluster_powers))
    return [
        (ue_index, sites[cell], cell, cl_db, gf_db, *spreads[cell],
         *calib.top_eigenvalues(taps[k][cell]))
        for k, (cell, cl_db, gf_db) in enumerate(zip(serving.tolist(), cl.tolist(), gf.tolist()))
    ]


# The campaign context of a pool worker process, set once by _init_worker.
_WORKER_CTX: _CampaignContext | None = None


def _init_worker(ctx: _CampaignContext):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_records(ue_index: int) -> list:
    return _phase2_records(_WORKER_CTX, ue_index)


def _map_records(ctx: _CampaignContext, n_ues: int, workers: int) -> list:
    """Every UE's list of phase-2 report rows (one per sweep point), over a
    pool of min(workers, n_ues) processes when that is more than one.

    The pool's initializer hands each worker the context. Workers are forked
    where possible, else spawned (pickling the context once per worker); one
    that ends abruptly, killed say for memory, raises ChildProcessError.
    """
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
    output directory.
    Drops UEs and computes their slow fading once (both are shared across
    sweep points for paired comparisons). Each (d_v, downtilt) sweep point
    then gets one CDF file per metric plus a per-UE report, both written from
    the point's report columns. The slow fading is one kernel call over the
    drop, its spatial fields spread over up to `workers` threads. Phase 1
    then runs in this process, in one pass over UE blocks. Phase 2 computes
    all sweep points of one UE at a time, spread over up to `workers` pool
    processes (forked, else spawned), never more than there are UEs.
    Progress goes to the "chan3d" logger.
    Deterministic for a fixed (config, seed) at any worker count.
    Each file is written under a temporary name and renamed into place once
    complete, so an interrupted campaign leaves no half-written output.
    """
    validate(cfg)
    out_dir = cfg.run.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
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
        site_xy=site_xy,
        cell_site=cell_site,
        cell_bearing_rad=cell_bearing,
        drop=drop,
        slow=slow,
        sweep=[(d_v, tilt) for d_v in cfg.d_v_sweep() for tilt in cfg.downtilt_sweep()],
        wavelength=wavelength,
        times=np.arange(cfg.run.n_time_samples) * cfg.run.time_step_s,
        wrap=wrap,
    )
    ctx.tx_setups = _tx_setups(ctx)
    if cfg.run.phase == 1:
        reports = _phase1_reports(ctx)
    else:
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
