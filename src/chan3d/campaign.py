"""Batch campaign driver: drops, sweeps, metric computation, and file emission."""
from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from . import calib
from .antenna import composite_port_gain_db, downtilt_weights, port_gain_itu_db
from .config import RunConfig, build_array, build_lsp_spec, build_tx_pattern, config_hash
from .deploy import (
    CELL_BEARINGS_DEG,
    Drop,
    drop_ues,
    fold_to_nearest_image,
    hex_layout,
    legacy_2d_drop,
    wrap_basis,
)
from .geom import SPEED_OF_LIGHT, AngleVector, rotation_z, wrap_azimuth
from .lsp import LspSampler, SlowFading
from .rng import STREAM_DROP, STREAM_SSP, substream
from .ssp import generate_cluster_set
from .synth import LinkContext, LinkEnd, synthesize, to_ports


# UEs per block of the array kernels: bounds the (UE, site/cell) temporaries.
UE_BLOCK = 32


@dataclass
class _SweepPoint:
    """One (d_v, tilt) point of the sweep: its TX pattern, array and port weights."""

    d_v: float
    tilt: float
    pattern: object
    geometry: object
    port_weights: np.ndarray | None


@dataclass
class _TxSetup:
    """Per-cell TX ends whose element taps serve a group of sweep points.

    points lists (sweep index, port weight matrix); None means the end's
    single element is the port.
    """

    ends: list
    points: list


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
    points: list
    wavelength: float
    times: np.ndarray
    wrap: np.ndarray | None = None
    tx_setups: list | None = None


def _effective_deltas(ctx: _CampaignContext, ue_xy: np.ndarray) -> np.ndarray:
    """UE minus site 2D offsets, folded to the closest wrap-around image if enabled."""
    delta = ue_xy - ctx.site_xy
    if ctx.wrap is None:
        return delta
    return fold_to_nearest_image(delta, ctx.wrap)


def _sweep_points(cfg: RunConfig, wavelength: float) -> list:
    """Every (d_v, tilt) point in output order."""
    points = []
    for d_v in cfg.d_v_sweep():
        for tilt in cfg.downtilt_sweep():
            pattern = build_tx_pattern(cfg.antenna, tilt)
            geometry = port_weights = None
            if cfg.antenna.pattern == "element":
                geometry = build_array(cfg.antenna, d_v, wavelength)
                if cfg.antenna.k_per_port == cfg.antenna.m_rows:
                    geometry = geometry.with_port_weights(
                        downtilt_weights(cfg.antenna.m_rows, d_v, math.radians(90.0 + tilt))
                    )
                port_weights = geometry.weight_matrix()
            points.append(_SweepPoint(d_v, tilt, pattern, geometry, port_weights))
    return points


def _tx_setups(ctx: _CampaignContext) -> list:
    """Group the sweep points by the TX ends their element taps come from.

    The element pattern does not move with the tilt, so the points of one d_v
    share one rotated array per cell and differ only in port weights. An
    itu_port pattern is tilted itself: each of its points has its own ends.
    """
    bearings = [float(b) for b in ctx.cell_bearing_rad]
    if ctx.cfg.antenna.pattern == "itu_port":
        return [
            _TxSetup(
                [LinkEnd(np.zeros((1, 3)), np.zeros(1), p.pattern, b) for b in bearings],
                [(k, None)],
            )
            for k, p in enumerate(ctx.points)
        ]
    setups = {}
    for k, p in enumerate(ctx.points):
        if p.d_v not in setups:
            positions, slants = p.geometry.element_positions, p.geometry.slant_rad
            ends = [LinkEnd(positions @ rotation_z(b).T, slants, p.pattern, b) for b in bearings]
            setups[p.d_v] = _TxSetup(ends, [])
        setups[p.d_v].points.append((k, p.port_weights))
    return list(setups.values())


def _slow_fading(cfg: RunConfig, sampler: LspSampler, drop: Drop, site_xy, wrap) -> SlowFading:
    """Tilt-independent slow fading of every UE toward every site, in UE blocks."""
    blocks = (
        sampler.slow_fading(
            range(start, min(start + UE_BLOCK, len(drop))),
            drop.xyz[start:start + UE_BLOCK],
            drop.indoor[start:start + UE_BLOCK],
            site_xy,
            cfg.layout.bs_height_m,
            cfg.pathloss,
            cfg.run.carrier_hz,
            wrap=wrap,
            all_lsps=cfg.run.phase == 2,
        )
        for start in range(0, len(drop), UE_BLOCK)
    )
    return SlowFading.concatenate(blocks, len(drop))


def _tx_gains_db(ctx: _CampaignContext, point: _SweepPoint, az_dep, zen_dep) -> np.ndarray:
    """Composite TX gain toward the LOS direction of every cell; (UE, site) in, (UE, cell) out."""
    local_az = wrap_azimuth(az_dep[..., ctx.cell_site] - ctx.cell_bearing_rad)
    zen = zen_dep[..., ctx.cell_site]
    if ctx.cfg.antenna.pattern == "itu_port":
        return np.asarray(port_gain_itu_db(point.pattern, local_az, zen))
    return np.asarray(
        composite_port_gain_db(point.pattern, point.geometry, 0, ctx.wavelength, local_az, zen)
    )


def _phase1_reports(ctx: _CampaignContext, point: _SweepPoint) -> list:
    """Attach every UE and compute its coupling gain and geometry factor, in UE blocks."""
    p_tx = ctx.cfg.layout.p_tx_dbm
    slow = ctx.slow
    reports = []
    for start in range(0, slow.pl.shape[0], UE_BLOCK):
        rows = slice(start, start + UE_BLOCK)
        rsrp = calib.rsrp_db(
            p_tx,
            _tx_gains_db(ctx, point, slow.az_dep[rows], slow.zen_dep[rows]),
            ctx.cfg.antenna.ue_gain_dbi,
            slow.pl[rows][:, ctx.cell_site],
            slow.sf[rows][:, ctx.cell_site],
        )
        for offset, row in enumerate(rsrp):
            serving = calib.attach(row)
            reports.append(calib.DropReport(
                ue_id=start + offset,
                site=int(ctx.cell_site[serving]),
                cell=serving,
                cl_db=calib.coupling_gain_db(float(row[serving]), p_tx),
                # Per UE row: one sum over the whole block rounds differently.
                gf_db=calib.geometry_factor_db(row, serving),
            ))
    return reports


def _link_fields(ctx: _CampaignContext, ue_index: int, cell: int, delta2d, lsps) -> dict:
    """LinkContext fields of one (UE, cell) link, all but its TX end and clusters."""
    slow = ctx.slow
    site = int(ctx.cell_site[cell])
    offset = np.array([delta2d[0], delta2d[1], ctx.drop.xyz[ue_index, 2] - ctx.site_z])
    # Per-link Python scalars (math.atan2/acos here, the Rice factor below):
    # their array forms round some links differently in the last bit.
    dep = AngleVector(
        math.atan2(offset[1], offset[0]),
        math.acos(max(-1.0, min(1.0, offset[2] / float(np.linalg.norm(offset))))),
    )
    return dict(
        rx=LinkEnd(np.zeros((1, 3)), np.zeros(1)),
        slow_fading_db=float(slow.pl[ue_index, site] + slow.sf[ue_index, site]),
        carrier_hz=ctx.cfg.run.carrier_hz,
        velocity_mps=ctx.drop.velocity[ue_index],
        rice_k_linear=10.0 ** (lsps.k_factor_db / 10.0) if slow.los[ue_index, site] else 0.0,
        los_departure=dep,
        los_arrival=AngleVector(dep.azimuth + math.pi, math.pi - dep.zenith),
        xpr_offdiag_inverse=ctx.cfg.ssp.xpr_offdiag == "sqrt_inv_kappa",
        polarization_model=ctx.cfg.antenna.polarization_model,
    )


def _phase2_records(ctx: _CampaignContext, ue_index: int) -> list:
    """One UE's reports at every sweep point, in sweep order.

    The clusters of all the UE's links are drawn in one batch, each from its
    own (UE, site, cell) stream. Each link's element taps are then
    synthesized once per TX setup, and each sweep point of the setup applies
    its port weights.
    """
    p_tx = ctx.cfg.layout.p_tx_dbm
    ue_gain = ctx.cfg.antenna.ue_gain_dbi
    sites = ctx.cell_site.tolist()
    rsrp = np.empty((len(ctx.points), len(sites)))
    realizations = [[None] * len(sites) for _ in ctx.points]
    deltas = _effective_deltas(ctx, ctx.drop.xyz[ue_index, :2])
    seed = ctx.cfg.run.master_seed
    lsps = [ctx.slow.link_lsps(ue_index, s) for s in sites]
    links = [_link_fields(ctx, ue_index, c, deltas[s], lsps[c]) for c, s in enumerate(sites)]
    rngs = [substream(seed, STREAM_SSP, ue_index, s, c - 3 * s) for c, s in enumerate(sites)]
    departures, arrivals = ([f[k] for f in links] for k in ("los_departure", "los_arrival"))
    batch = generate_cluster_set(lsps, departures, arrivals, ctx.cfg.ssp, rngs)
    for cell, fields in enumerate(links):
        clusters = batch.link(cell)
        for setup in ctx.tx_setups:
            link = LinkContext(tx=setup.ends[cell], clusters=clusters, **fields)
            elements = synthesize(link, ctx.times)
            for k, weights in setup.points:
                realization = elements if weights is None else to_ports(elements, weights)
                rsrp[k, cell] = calib.rsrp_fast_fading_db(p_tx, realization) + ue_gain
                realizations[k][cell] = realization

    reports = []
    for k in range(len(ctx.points)):
        serving = calib.attach(rsrp[k])
        cs = batch.link(serving)
        l1, l2 = calib.top_eigenvalues(realizations[k][serving])
        reports.append(calib.DropReport(
            ue_id=ue_index,
            site=sites[serving],
            cell=serving,
            cl_db=calib.coupling_gain_db(float(rsrp[k, serving]), p_tx),
            gf_db=calib.geometry_factor_db(rsrp[k], serving),
            asd_deg=calib.angular_spread_deg(cs.aod, cs.ray_powers),
            asa_deg=calib.angular_spread_deg(cs.aoa, cs.ray_powers),
            esd_deg=calib.angular_spread_deg(cs.zod, cs.ray_powers),
            esa_deg=calib.angular_spread_deg(cs.zoa, cs.ray_powers),
            ds_s=calib.delay_spread_s(cs.delays_s, cs.cluster_powers),
            lambda1=l1,
            lambda2=l2,
        ))
    return reports


# The campaign context of a pool worker process, set once by _init_worker.
_WORKER_CTX: _CampaignContext | None = None


def _init_worker(ctx: _CampaignContext):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_records(ue_index: int) -> list:
    return _phase2_records(_WORKER_CTX, ue_index)


def _map_records(ctx: _CampaignContext, n_ues: int, workers: int, log=None) -> list:
    """Every UE's list of phase-2 reports (one per sweep point), over a
    process pool when workers > 1.

    The pool's initializer hands each worker the context. Workers are forked
    where the platform allows it, else spawned, which pickles the context
    once per worker.
    """
    if workers <= 1:
        return [_phase2_records(ctx, i) for i in range(n_ues)]
    try:
        mp_ctx, started = multiprocessing.get_context("fork"), "forked"
    except ValueError:
        mp_ctx, started = multiprocessing.get_context("spawn"), "spawned"
    if log:
        note = "fork start method unavailable: " if started == "spawned" else ""
        log(f"{note}{n_ues} UEs over {workers} {started} worker processes")
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
        for val, prob in zip(v, p):
            fh.write(f"{float(val)!r} {float(prob)!r}\n")
    return path


PHASE2_METRICS = (
    ("asd", "asd_deg"), ("asa", "asa_deg"), ("esd", "esd_deg"), ("esa", "esa_deg"),
    ("ds", "ds_s"), ("l1", "lambda1"), ("l2", "lambda2"),
)


def run_campaign(cfg: RunConfig, log=None) -> list:
    """Execute the configured campaign and return the written file paths.

    Drops UEs and computes their slow fading once (both are shared across
    sweep points for paired comparisons). Each (d_v, downtilt) sweep point
    then gets one CDF file per metric plus a per-UE report. Phase 1 computes
    a sweep point's TX gains, attachment, coupling gain and geometry factor
    vectorized in this process. Phase 2 computes all sweep points of one UE
    at a time, spread over `workers` pool processes (forked, else spawned).
    A per-link loop makes the draws of the UE's links from their own
    streams, then one array pass computes all their clusters. Synthesis
    stays per link, which keeps peak memory to one link's ray terms: each
    link's element taps are synthesized once per d_v (once per tilt for the
    tilted itu_port pattern), and each tilt applies its port weights.
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

    drop_rng = substream(cfg.run.master_seed, STREAM_DROP)
    dropper = drop_ues if cfg.run.drop_mode == "3d" else legacy_2d_drop
    drop = dropper(
        cfg.run.n_ue_per_cell, site_xy, drop_rng, cfg.layout.isd_m,
        cfg.layout.min_dist_2d_m, cfg.layout.ue_speed_kmh,
    )

    if cfg.run.phase == 1 and cfg.run.workers > 1 and log:
        log(
            f"phase 1 runs vectorized in one process; "
            f"workers={cfg.run.workers} applies to phase 2 only"
        )

    sampler = LspSampler(
        build_lsp_spec(cfg.lsp_los, cfg.corr_los, cfg.decorrelation),
        build_lsp_spec(cfg.lsp_nlos, cfg.corr_nlos, cfg.decorrelation),
        cfg.run.master_seed,
        spatial=cfg.spatial.enabled,
        n_field_terms=cfg.spatial.n_terms,
    )
    wrap = (
        wrap_basis(cfg.layout.n_rings, cfg.layout.isd_m)
        if cfg.layout.wrap_around
        else None
    )
    slow = _slow_fading(cfg, sampler, drop, site_xy, wrap)
    if log:
        n_links, n_los = slow.los.size, int(np.count_nonzero(slow.los))
        log(f"slow fading: {n_links} (UE, site) links, {n_los} LOS ({n_los / n_links:.4f})")
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
        points=_sweep_points(cfg, wavelength),
        wavelength=wavelength,
        times=np.arange(cfg.run.n_time_samples) * cfg.run.time_step_s,
        wrap=wrap,
    )
    if cfg.run.phase == 2:
        ctx.tx_setups = _tx_setups(ctx)
        per_point = list(zip(*_map_records(ctx, len(drop), cfg.run.workers, log)))

    written = []
    for k, point in enumerate(ctx.points):
        d_v, tilt = point.d_v, point.tilt
        if log:
            log(f"sweep point d_v={d_v:g} tilt={tilt:g} deg: {len(drop)} UEs")
        reports = _phase1_reports(ctx, point) if cfg.run.phase == 1 else per_point[k]
        suffix = f"dv{d_v:g}_tilt{tilt:g}"
        written.append(_write_cdf(
            os.path.join(out_dir, f"cl_cdf_{suffix}.txt"),
            [r.cl_db for r in reports], "cl_db", cfg, d_v, tilt, digest,
        ))
        written.append(_write_cdf(
            os.path.join(out_dir, f"gf_cdf_{suffix}.txt"),
            [r.gf_db for r in reports], "gf_db", cfg, d_v, tilt, digest,
        ))
        if cfg.run.phase == 2:
            for short, attr in PHASE2_METRICS:
                written.append(_write_cdf(
                    os.path.join(out_dir, f"{short}_cdf_{suffix}.txt"),
                    [getattr(r, attr) for r in reports], short, cfg, d_v, tilt, digest,
                ))
        report_path = os.path.join(out_dir, f"report_{suffix}.txt")
        with _open_atomic(report_path) as fh:
            calib.write_report(reports, fh)
        written.append(report_path)
    return written
