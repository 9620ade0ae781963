"""Batch campaign driver: drops, sweeps, metric computation, and file emission."""
from __future__ import annotations

import logging
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import calib
from .antenna import element_gain_db, element_terms, fields_gain_db, weight_fields
from .config import RunConfig, build_array, build_tx_pattern, config_hash
from .deploy import (
    CELL_BEARINGS_DEG,
    Drop,
    drop_ues,
    fold_to_nearest_image,
    hex_layout,
    wrap_basis,
)
from .geom import SPEED_OF_LIGHT, rotation_z, wrap_azimuth
from .lsp import LspSampler, SlowFading
from .rng import STREAM_DROP, STREAM_SSP, substream
from .ssp import generate_cluster_set
from .synth import LinkContext, LinkEnd, synthesize, to_ports


log = logging.getLogger("chan3d")

# UEs per block of the phase-1 report pass: bounds its (UE, cell, element) temporaries.
UE_BLOCK = 32


@dataclass
class _TxSetup:
    """Sweep points whose TX gains come from one pattern and element array.

    points lists their sweep indices and arrays the array of each, with the
    point's port weights; an array is None for an itu_port pattern, whose
    single element is the port. ends holds the per-cell TX link ends that
    phase 2 synthesizes element taps for.
    """

    pattern: object
    points: list
    arrays: list
    ends: list | None = None


@dataclass
class _CampaignContext:
    """Sweep-independent campaign state shared by the per-UE workers."""

    cfg: RunConfig
    site_xy: np.ndarray
    site_z: float
    cell_site: np.ndarray
    cell_bearing_rad: np.ndarray
    drop: Drop
    slow: SlowFading
    sweep: list
    wavelength: float
    times: np.ndarray
    wrap: np.ndarray | None = None
    tx_setups: list | None = None


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
        s.arrays.append(None if itu else build_array(antenna, d_v, ctx.wavelength, tilt))
    if ctx.cfg.run.phase == 2:
        bearings = [float(b) for b in ctx.cell_bearing_rad]
        for s in setups.values():
            if itu:
                s.ends = [LinkEnd(np.zeros((1, 3)), np.zeros(1), s.pattern, b) for b in bearings]
            else:
                xyz, slants = s.arrays[0].element_positions, s.arrays[0].slant_rad
                s.ends = [LinkEnd(xyz @ rotation_z(b).T, slants, s.pattern, b) for b in bearings]
    return list(setups.values())


def _tx_gains_db(ctx: _CampaignContext, setup: _TxSetup, local_az, zen) -> list:
    """TX gain over (UE, cell) toward each cell's LOS direction, for each point
    of the setup: its element terms once, then each point's port weights."""
    if setup.arrays[0] is None:
        return [np.asarray(element_gain_db(setup.pattern, local_az, zen))]
    amp, phases = element_terms(setup.pattern, setup.arrays[0], 0, ctx.wavelength, local_az, zen)
    return [fields_gain_db(*weight_fields(amp, phases, array, 0)) for array in setup.arrays]


def _serving_columns(rsrp, p_tx: float) -> tuple:
    """Serving cell, coupling gain and geometry factor of each row of (row, cell) RSRP."""
    serving = calib.attach(rsrp)
    own = np.take_along_axis(rsrp, serving[:, None], axis=1)[:, 0]
    return serving, calib.coupling_gain_db(own, p_tx), calib.geometry_factor_db(rsrp, serving)


def _phase1_reports(ctx: _CampaignContext) -> list:
    """Every sweep point's report columns, in one pass over UE blocks.

    Per block, the angles toward every cell are computed once and the element
    terms once per TX setup; each sweep point applies only its port weights.
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
        local_az = wrap_azimuth(slow.az_dep[rows][:, cells] - ctx.cell_bearing_rad)
        zen = slow.zen_dep[rows][:, cells]
        pl, sf = slow.pl[rows][:, cells], slow.sf[rows][:, cells]
        for setup in ctx.tx_setups:
            for k, gain in zip(setup.points, _tx_gains_db(ctx, setup, local_az, zen)):
                rsrp = calib.rsrp_db(p_tx, gain, ctx.cfg.antenna.ue_gain_dbi, pl, sf)
                serving, cl, gf = _serving_columns(rsrp, p_tx)
                report = reports[k]
                report["site"][rows], report["cell"][rows] = cells[serving], serving
                report["cl_db"][rows], report["gf_db"][rows] = cl, gf
    return reports


def _link_fields(ctx: _CampaignContext, ue_index: int, cell: int, delta2d, k_db) -> dict:
    """LinkContext fields of one (UE, cell) link, all but its TX end and
    clusters; k_db is the link's Rice factor in dB. The LOS directions are
    (azimuth, zenith) pairs, the arrival the reversed departure."""
    slow = ctx.slow
    site = int(ctx.cell_site[cell])
    offset = np.array([delta2d[0], delta2d[1], ctx.drop.xyz[ue_index, 2] - ctx.site_z])
    # Per-link Python scalars (math.atan2/acos/pow): their array forms round
    # some links differently in the last bit.
    az = float(wrap_azimuth(math.atan2(offset[1], offset[0])))
    zen = math.acos(max(-1.0, min(1.0, offset[2] / float(np.linalg.norm(offset)))))
    try:
        rice_k = math.pow(10.0, k_db / 10.0) if slow.los[ue_index, site] else 0.0
    except OverflowError:
        raise ValueError(
            "the LOS Rice-factor draw overflowed: K = 10**(k/10) exceeds the float range; "
            "lower the [lsp_los] k_mu_db or k_sigma_db"
        ) from None
    return dict(
        rx=LinkEnd(np.zeros((1, 3)), np.zeros(1)),
        slow_fading_db=float(slow.pl[ue_index, site] + slow.sf[ue_index, site]),
        carrier_hz=ctx.cfg.run.carrier_hz,
        velocity_mps=ctx.drop.velocity[ue_index],
        rice_k_linear=rice_k,
        los_departure=(az, zen),
        los_arrival=(float(wrap_azimuth(az + math.pi)), math.pi - zen),
        xpr_offdiag_inverse=ctx.cfg.ssp.xpr_offdiag == "sqrt_inv_kappa",
        polarization_model=ctx.cfg.antenna.polarization_model,
    )


def _phase2_records(ctx: _CampaignContext, ue_index: int) -> list:
    """One UE's report rows (tuples in REPORT_COLUMNS order) at every sweep
    point, in sweep order.

    The clusters of all the UE's links are drawn in one batch, each from its
    own (UE, site, cell) stream. Each link's element taps are then
    synthesized once per TX setup, and each sweep point of the setup applies
    its port weights. Synthesis stays per link, which keeps peak memory to
    one link's ray terms.
    """
    p_tx = ctx.cfg.layout.p_tx_dbm
    ue_gain = ctx.cfg.antenna.ue_gain_dbi
    sites = ctx.cell_site.tolist()
    rsrp = np.empty((len(ctx.sweep), len(sites)))
    port_taps = [[None] * len(sites) for _ in ctx.sweep]
    deltas = ctx.drop.xyz[ue_index, :2] - ctx.site_xy
    if ctx.wrap is not None:
        deltas = fold_to_nearest_image(deltas, ctx.wrap)
    seed = ctx.cfg.run.master_seed
    lsps = ctx.slow.lsps[ue_index, ctx.cell_site]
    links = [_link_fields(ctx, ue_index, c, deltas[s], lsps[c, 1]) for c, s in enumerate(sites)]
    rngs = [substream(seed, STREAM_SSP, ue_index, s, c - 3 * s) for c, s in enumerate(sites)]
    departures = np.array([f["los_departure"] for f in links])
    arrivals = np.array([f["los_arrival"] for f in links])
    batch = generate_cluster_set(lsps, departures, arrivals, ctx.cfg.ssp, rngs)
    for cell, fields in enumerate(links):
        clusters = batch.link(cell)
        for setup in ctx.tx_setups:
            link = LinkContext(tx=setup.ends[cell], clusters=clusters, **fields)
            elements = synthesize(link, ctx.times)
            for k, array in zip(setup.points, setup.arrays):
                taps = elements if array is None else to_ports(elements, array.weights)
                rsrp[k, cell] = calib.rsrp_fast_fading_db(p_tx, taps) + ue_gain
                port_taps[k][cell] = taps

    serving, cl, gf = _serving_columns(rsrp, p_tx)
    records = []
    for k, (cell, cl_db, gf_db) in enumerate(zip(serving.tolist(), cl.tolist(), gf.tolist())):
        cs = batch.link(cell)
        records.append((
            ue_index, sites[cell], cell, cl_db, gf_db,
            calib.angular_spread_deg(cs.aod, cs.ray_powers),
            calib.angular_spread_deg(cs.aoa, cs.ray_powers),
            calib.angular_spread_deg(cs.zod, cs.ray_powers),
            calib.angular_spread_deg(cs.zoa, cs.ray_powers),
            calib.delay_spread_s(cs.delays_s, cs.cluster_powers),
            *calib.top_eigenvalues(port_taps[k][cell]),
        ))
    return records


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
    where the platform allows it, else spawned, which pickles the context
    once per worker.
    """
    workers = min(workers, n_ues)
    if workers <= 1:
        return [_phase2_records(ctx, i) for i in range(n_ues)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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
        return list(pool.map(_worker_records, range(n_ues), chunksize=chunk))


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

    sampler = LspSampler(
        (cfg.lsp_los, cfg.corr_los),
        (cfg.lsp_nlos, cfg.corr_nlos),
        cfg.decorrelation,
        cfg.run.master_seed,
        spatial=cfg.spatial.enabled,
        n_field_terms=cfg.spatial.n_terms,
    )
    wrap = (
        wrap_basis(cfg.layout.n_rings, cfg.layout.isd_m)
        if cfg.layout.wrap_around
        else None
    )
    slow = sampler.slow_fading(
        range(len(drop)), drop.xyz, drop.indoor, site_xy, cfg.layout.bs_height_m, cfg.pathloss,
        cfg.run.carrier_hz, wrap=wrap, all_lsps=cfg.run.phase == 2, workers=cfg.run.workers,
    )
    n_links, n_los = slow.los.size, int(np.count_nonzero(slow.los))
    log.info(f"slow fading: {n_links} (UE, site) links, {n_los} LOS ({n_los / n_links:.4f})")
    wavelength = SPEED_OF_LIGHT / cfg.run.carrier_hz
    digest = config_hash(cfg)
    ctx = _CampaignContext(
        cfg=cfg,
        site_xy=site_xy,
        site_z=cfg.layout.bs_height_m,
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
    single_element_sweep = (
        cfg.run.phase == 1 and cfg.antenna.pattern == "element"
        and cfg.antenna.k_per_port == 1 and len(ctx.sweep) > 1
    )
    if single_element_sweep:
        log.warning("warning: at k_per_port = 1 phase 1 measures port 0, a single element at "
                    "the array origin, so every sweep point writes the same report")
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
