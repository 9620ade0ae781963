"""Batch campaign driver: drops, sweeps, metric computation, and file emission."""
from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import calib
from .antenna import composite_port_gain_db, port_gain_itu_db
from .config import (
    RunConfig,
    build_array,
    build_los_model,
    build_lsp_spec,
    build_pathloss,
    build_ssp,
    build_tx_pattern,
    config_hash,
    tilt_weights_for,
)
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
from .synth import LinkContext, LinkEnd, synthesize


# UEs per block of the array kernels: bounds the (UE, site/cell) temporaries.
UE_BLOCK = 32


@dataclass
class _SweepContext:
    """Per-sweep-point state shared by the per-UE workers."""

    cfg: RunConfig
    site_xy: np.ndarray
    site_z: float
    cell_site: np.ndarray
    cell_bearing_rad: np.ndarray
    drop: Drop
    slow: SlowFading
    pattern: object
    geometry: object
    port_weights: np.ndarray | None
    wavelength: float
    ssp_cfg: object
    times: np.ndarray
    wrap: np.ndarray | None = None


_ACTIVE: _SweepContext | None = None


def _effective_deltas(ctx: _SweepContext, ue_xy: np.ndarray) -> np.ndarray:
    """UE minus site 2D offsets, folded to the closest wrap-around image if enabled."""
    delta = ue_xy - ctx.site_xy
    if ctx.wrap is None:
        return delta
    return fold_to_nearest_image(delta, ctx.wrap)


def _slow_fading(cfg: RunConfig, sampler: LspSampler, drop: Drop, site_xy, wrap) -> SlowFading:
    """Tilt-independent slow fading of every UE toward every site, in UE blocks."""
    pathloss = build_pathloss(cfg.pathloss)
    blocks = (
        sampler.slow_fading(
            range(start, min(start + UE_BLOCK, len(drop))),
            drop.xyz[start:start + UE_BLOCK],
            drop.indoor[start:start + UE_BLOCK],
            site_xy,
            cfg.layout.bs_height_m,
            pathloss,
            cfg.run.carrier_hz,
            wrap=wrap,
            all_lsps=cfg.run.phase == 2,
        )
        for start in range(0, len(drop), UE_BLOCK)
    )
    return SlowFading.concatenate(blocks, len(drop))


def _tx_gains_db(ctx: _SweepContext, az_dep: np.ndarray, zen_dep: np.ndarray) -> np.ndarray:
    """Composite TX gain toward the LOS direction of every cell; (UE, site) in, (UE, cell) out."""
    local_az = wrap_azimuth(az_dep[..., ctx.cell_site] - ctx.cell_bearing_rad)
    zen = zen_dep[..., ctx.cell_site]
    if ctx.cfg.antenna.pattern == "itu_port":
        return np.asarray(port_gain_itu_db(ctx.pattern, local_az, zen))
    return np.asarray(
        composite_port_gain_db(ctx.pattern, ctx.geometry, 0, ctx.wavelength, local_az, zen)
    )


def _phase1_reports(ctx: _SweepContext) -> list:
    """Attach every UE and compute its coupling gain and geometry factor, in UE blocks."""
    p_tx = ctx.cfg.layout.p_tx_dbm
    slow = ctx.slow
    reports = []
    for start in range(0, slow.pl.shape[0], UE_BLOCK):
        rows = slice(start, start + UE_BLOCK)
        rsrp = calib.rsrp_db(
            p_tx,
            _tx_gains_db(ctx, slow.az_dep[rows], slow.zen_dep[rows]),
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


def _link_context(ctx: _SweepContext, ue_index: int, cell: int, lsps, los: bool, pl_sf_db: float):
    """Assemble the synthesis context of one (UE, cell) link."""
    cfg = ctx.cfg
    site = int(ctx.cell_site[cell])
    bearing = float(ctx.cell_bearing_rad[cell])
    ue_xyz = ctx.drop.xyz[ue_index]
    delta2d = _effective_deltas(ctx, ue_xyz[:2])[site]
    offset = np.array([delta2d[0], delta2d[1], ue_xyz[2] - ctx.site_z])
    # Per-link math.atan2/acos, not SlowFading's np.arctan2/arccos angles,
    # which differ in the last bit on some links and would change the bytes.
    dep = AngleVector(
        math.atan2(offset[1], offset[0]),
        math.acos(max(-1.0, min(1.0, offset[2] / float(np.linalg.norm(offset))))),
    )
    arr = AngleVector(dep.azimuth + math.pi, math.pi - dep.zenith)

    if cfg.antenna.pattern == "itu_port":
        tx = LinkEnd(np.zeros((1, 3)), np.zeros(1), ctx.pattern, bearing)
        output = "elements"
    else:
        rot = rotation_z(bearing)
        tx = LinkEnd(
            ctx.geometry.element_positions @ rot.T,
            ctx.geometry.slant_rad,
            ctx.pattern,
            bearing,
            port_weights=ctx.port_weights,
        )
        output = "ports"
    rx = LinkEnd(np.zeros((1, 3)), np.zeros(1))

    cell_local = cell - 3 * site
    rng = substream(cfg.run.master_seed, STREAM_SSP, ue_index, site, cell_local)
    clusters = generate_cluster_set(lsps, dep, arr, ctx.ssp_cfg, rng)
    k_rice = 10.0 ** (lsps.k_factor_db / 10.0) if los else 0.0
    link = LinkContext(
        tx=tx,
        rx=rx,
        clusters=clusters,
        slow_fading_db=pl_sf_db,
        carrier_hz=cfg.run.carrier_hz,
        velocity_mps=ctx.drop.velocity[ue_index],
        rice_k_linear=k_rice,
        los_departure=dep,
        los_arrival=arr,
        xpr_offdiag_inverse=ctx.ssp_cfg.xpr_offdiag_inverse,
        polarization_model=cfg.antenna.polarization_model,
    )
    return link, output


def _phase2_record(ue_index: int) -> calib.DropReport:
    ctx = _ACTIVE
    cfg = ctx.cfg
    slow = ctx.slow
    los, pl, sf = slow.los[ue_index], slow.pl[ue_index], slow.sf[ue_index]

    n_cells = ctx.cell_site.size
    rsrp = np.empty(n_cells)
    kept = []
    for c in range(n_cells):
        s = int(ctx.cell_site[c])
        link, output = _link_context(
            ctx, ue_index, c, slow.link_lsps(ue_index, s), bool(los[s]), float(pl[s] + sf[s])
        )
        realization = synthesize(link, ctx.times, output=output)
        rsrp[c] = calib.rsrp_fast_fading_db(cfg.layout.p_tx_dbm, realization) + cfg.antenna.ue_gain_dbi
        kept.append((link.clusters, realization))
    serving = calib.attach(rsrp)
    clusters, realization = kept[serving]
    l1, l2 = calib.top_eigenvalues(realization)
    return calib.DropReport(
        ue_id=ue_index,
        site=int(ctx.cell_site[serving]),
        cell=serving,
        cl_db=calib.coupling_gain_db(float(rsrp[serving]), cfg.layout.p_tx_dbm),
        gf_db=calib.geometry_factor_db(rsrp, serving),
        asd_deg=calib.angular_spread_deg(clusters.aod, clusters.ray_powers),
        asa_deg=calib.angular_spread_deg(clusters.aoa, clusters.ray_powers),
        esd_deg=calib.angular_spread_deg(clusters.zod, clusters.ray_powers),
        esa_deg=calib.angular_spread_deg(clusters.zoa, clusters.ray_powers),
        ds_s=calib.delay_spread_s(clusters.delays_s, clusters.cluster_powers),
        lambda1=l1,
        lambda2=l2,
    )


def _map_records(ctx: _SweepContext, n_ues: int, workers: int, log=None):
    """Phase-2 records of every UE, over a forked process pool when workers > 1.

    Forked workers inherit the context, slow fading included.
    """
    global _ACTIVE
    _ACTIVE = ctx
    try:
        if workers > 1:
            try:
                mp_ctx = multiprocessing.get_context("fork")
            except ValueError:
                if log:
                    log(f"fork start method unavailable: running {n_ues} UEs in one process")
            else:
                if log:
                    log(f"{n_ues} UEs over {workers} forked worker processes")
                chunk = max(1, n_ues // (workers * 4))
                with ProcessPoolExecutor(max_workers=workers, mp_context=mp_ctx) as pool:
                    return list(pool.map(_phase2_record, range(n_ues), chunksize=chunk))
        return [_phase2_record(i) for i in range(n_ues)]
    finally:
        _ACTIVE = None


def _write_cdf(path, values, metric: str, cfg: RunConfig, d_v: float, tilt: float, digest: str):
    v, p = calib.empirical_cdf(values)
    with open(path, "w") as fh:
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
    sweep points for paired comparisons). Then, for each (d_v, downtilt)
    sweep point: compute the TX gains, attach, and emit one CDF file per
    metric plus a per-UE report. Phase 1 runs vectorized in this process;
    phase 2 spreads UEs over `workers` forked processes. Deterministic for a
    fixed (config, seed) at any worker count.
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
        los_model=build_los_model(cfg.pathloss),
        spatial=cfg.spatial_enabled,
        n_field_terms=cfg.spatial_terms,
    )
    wrap = (
        wrap_basis(cfg.layout.n_rings, cfg.layout.isd_m)
        if cfg.layout.wrap_around
        else None
    )
    slow = _slow_fading(cfg, sampler, drop, site_xy, wrap)
    wavelength = SPEED_OF_LIGHT / cfg.run.carrier_hz
    times = np.arange(cfg.run.n_time_samples) * cfg.run.time_step_s
    digest = config_hash(cfg)
    ssp_cfg = build_ssp(cfg.ssp)

    written = []
    for d_v in cfg.d_v_sweep():
        for tilt in cfg.downtilt_sweep():
            pattern = build_tx_pattern(cfg.antenna, tilt)
            geometry = port_weights = None
            if cfg.antenna.pattern == "element":
                geometry = build_array(cfg.antenna, d_v, wavelength)
                if cfg.antenna.k_per_port == cfg.antenna.m_rows:
                    geometry = geometry.with_port_weights(
                        tilt_weights_for(cfg.antenna, d_v, tilt)
                    )
                port_weights = geometry.weight_matrix()
            ctx = _SweepContext(
                cfg=cfg,
                site_xy=site_xy,
                site_z=cfg.layout.bs_height_m,
                cell_site=cell_site,
                cell_bearing_rad=cell_bearing,
                drop=drop,
                slow=slow,
                pattern=pattern,
                geometry=geometry,
                port_weights=port_weights,
                wavelength=wavelength,
                ssp_cfg=ssp_cfg,
                times=times,
                wrap=wrap,
            )
            if log:
                log(f"sweep point d_v={d_v:g} tilt={tilt:g} deg: {len(drop)} UEs")
            if cfg.run.phase == 1:
                reports = _phase1_reports(ctx)
            else:
                reports = _map_records(ctx, len(drop), cfg.run.workers, log)

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
            with open(report_path, "w") as fh:
                calib.write_report(reports, fh)
            written.append(report_path)
    return written
