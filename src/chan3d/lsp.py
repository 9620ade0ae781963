"""The LSP model ([lsp_*] sections), slow fading, and correlated large-scale
parameter generation per UE-site link."""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from .deploy import fold_to_nearest_image
from .geom import pow10, wrap_azimuth
from .rng import STREAM_FIELD, STREAM_LOS_STATE, STREAM_LSP, keyed_generators, keyed_uniforms

log = logging.getLogger("chan3d")

# Canonical ordering of the seven large-scale parameters.
LSP_NAMES = ("sf", "k", "ds", "asd", "asa", "esd", "esa")

# (UE, site) links per chunk of slow_fading's per-link stages (larger chunks
# ran little faster and cost peak RSS), and cosines per chunk of a spatial
# field: about 1 ms of cosines between the GIL handoffs that end each chunk.
LINK_CHUNK = 2048
FIELD_CHUNK = 32768


# A distance table: rows (d_2d, mu, sigma), written "d:mu:sigma, ...".
Table = tuple


@dataclass
class LspSection:
    """An [lsp_los] or [lsp_nlos] section: the LSP marginals of one LOS state.

    Each LSP is normal with (mu, sigma) in its generation domain: dB for SF
    and K, log10 of s or deg for the spreads. ESD and ESA take theirs from
    distance tables, piecewise linear in the 2D distance and clamped at the
    table ends; mu then moves by slope * (h_ue - 1.5) with the UE height.
    """

    sf_mu_db: float = 0.0
    sf_sigma_db: float = 6.0
    k_mu_db: float = 9.0
    k_sigma_db: float = 3.5
    ds_log10_mu: float = -6.44
    ds_log10_sigma: float = 0.39
    asd_log10_mu: float = 1.41
    asd_log10_sigma: float = 0.28
    asa_log10_mu: float = 1.87
    asa_log10_sigma: float = 0.11
    esd_table: Table = ((0.0, 0.9, 0.49), (700.0, -0.5, 0.49), (10000.0, -0.5, 0.49))
    esd_height_slope_per_m: float = -0.01
    esa_table: Table = ((0.0, 1.26, 0.16),)
    esa_height_slope_per_m: float = 0.0


@dataclass
class DecorrelationSection:
    """Decorrelation distance (m) of each LSP's spatial field, in LSP_NAMES order."""

    sf: float = 50.0
    k: float = 50.0
    ds: float = 40.0
    asd: float = 50.0
    asa: float = 50.0
    esd: float = 50.0
    esa: float = 50.0


def mixing_factor(pairs: dict) -> np.ndarray:
    """Factor F with F F^T equal to the 7x7 LSP correlation matrix.

    pairs maps "a_b" LSP-name pairs to their correlation; the other
    off-diagonal entries are 0. Uses Cholesky when positive definite, an
    eigenvalue factor for the semi-definite case, and raises ValueError
    otherwise.
    """
    corr = np.eye(len(LSP_NAMES))
    for key, value in pairs.items():
        i, j = (LSP_NAMES.index(name) for name in key.split("_"))
        corr[i, j] = corr[j, i] = value
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(corr)
        if w.min() < -1e-8:
            raise ValueError(
                f"correlation matrix is not positive semi-definite (min eigenvalue {w.min():.3g})"
            ) from None
        return v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def lsps_from_normals(
    section: LspSection, factor, normals, d_2d, h_ue, count: int = len(LSP_NAMES)
) -> np.ndarray:
    """The first `count` LSPs, in LSP_NAMES order, from standard normals of shape (..., 7).

    The normals are mixed through the correlation factor (mixing_factor),
    then mapped through the section's marginals: dB for SF and K, natural
    units for the spreads. d_2d and h_ue broadcast against the leading axes;
    they set the ESD/ESA marginals. Returns shape (..., count).
    """
    s = section
    # The rows read only: batched matmul equals the per-link F[:count] @ n bit for bit.
    z = np.matmul(factor[:count], np.asarray(normals, dtype=float)[..., None])[..., 0]
    marginals = [
        (s.sf_mu_db, s.sf_sigma_db), (s.k_mu_db, s.k_sigma_db),
        (s.ds_log10_mu, s.ds_log10_sigma), (s.asd_log10_mu, s.asd_log10_sigma),
        (s.asa_log10_mu, s.asa_log10_sigma),
    ]
    if count > 5:
        for table, slope in ((s.esd_table, s.esd_height_slope_per_m),
                             (s.esa_table, s.esa_height_slope_per_m)):
            d, mu, sigma = zip(*table)
            mu_at = np.interp(d_2d, d, mu) + slope * (h_ue - 1.5)
            marginals.append((mu_at, np.interp(d_2d, d, sigma)))
    overflow = ("the LSP draw overflowed: a spread of 10**x exceeds the float range; "
                "lower the [lsp_los]/[lsp_nlos] log10 mu or sigma")
    values = np.stack([mu + sd * z[..., i] for i, (mu, sd) in enumerate(marginals[:count])], -1)
    values[..., 2:] = pow10(values[..., 2:], overflow)  # the spreads, from their log10
    return values


@dataclass
class Pathloss:
    """The [pathloss] section: per-state PL = intercept + 10*exponent*log10(d_3d)
    + freq*log10(f_GHz), NLOS UE-height gain, indoor penetration, and
    P(LOS) = min(1, exp(-(d_2d - d0) / decay))."""

    los_intercept_db: float = 28.0
    los_exponent: float = 2.2
    los_freq_db: float = 20.0
    nlos_intercept_db: float = 13.54
    nlos_exponent: float = 3.908
    nlos_freq_db: float = 20.0
    ue_height_gain_db_per_m: float = 0.6
    indoor_penetration_db: float = 20.0
    los_prob_d0_m: float = 18.0
    los_prob_decay_m: float = 63.0

    def los_probability(self, d_2d):
        """P(LOS) at 2D distances (a scalar or an array)."""
        x = -(np.asarray(d_2d, dtype=float) - self.los_prob_d0_m) / self.los_prob_decay_m
        return np.minimum(1.0, np.exp(x))


def pathloss_db(model: Pathloss, d_3d, h_ue, indoor, los, frequency_hz: float) -> np.ndarray:
    """Deterministic pathloss in dB over the 3D distance, for broadcastable arrays of links.

    NLOS links get a UE-height gain term relative to the 1.5 m reference;
    indoor links add the configured penetration constant.
    """
    d_3d = np.asarray(d_3d, dtype=float)
    if np.any(d_3d <= 0):
        raise ValueError("pathloss undefined at zero distance")
    if frequency_hz <= 0:
        raise ValueError("frequency must be positive")
    log_d = np.log10(d_3d)
    pl = (
        np.where(los, model.los_intercept_db, model.nlos_intercept_db)
        + 10.0 * np.where(los, model.los_exponent, model.nlos_exponent) * log_d
        + np.where(los, model.los_freq_db, model.nlos_freq_db) * math.log10(frequency_hz / 1e9)
    )
    pl = np.where(los, pl, pl - model.ue_height_gain_db_per_m * (h_ue - 1.5))
    return np.where(indoor, pl + model.indoor_penetration_db, pl)


def field_waves(cfg, jobs) -> list:
    """(kx, ky, phase), each (n_terms,), of the sum-of-sinusoids Gaussian
    field of each (site, LSP) job, with exponential autocorrelation at the
    LSP's decorrelation distance.

    The field at (x, y) is sqrt(2/n_terms) * sum(cos(kx x + ky y + phase)), in
    closed form at any point, so workers need no coordination. The radial
    wavenumber law is the 2D spectral density of exp(-d/decorrelation). Each
    field draws from the stream keyed (seed, STREAM_FIELD, site, LSP), all
    fields in one keyed pass.
    """
    n_terms = cfg.spatial.n_terms
    site, lsp = np.array(jobs, dtype=int).reshape(-1, 2).T
    streams = keyed_generators(cfg.run.master_seed, STREAM_FIELD, site, lsp)
    waves = []
    for i, rng in zip(lsp.tolist(), streams):
        decorrelation_m = getattr(cfg.decorrelation, LSP_NAMES[i])
        k_mag = np.sqrt(1.0 / (1.0 - rng.random(n_terms)) ** 2 - 1.0) / decorrelation_m
        direction = rng.uniform(0.0, 2.0 * math.pi, n_terms)
        phase = rng.uniform(0.0, 2.0 * math.pi, n_terms)
        waves.append((k_mag * np.cos(direction), k_mag * np.sin(direction), phase))
    return waves


@dataclass
class SlowFading:
    """Tilt-independent slow fading of UEs toward every site.

    Arrays are indexed (UE, site): 2D distance, departure azimuth and zenith
    at the site, LOS state, pathloss and shadow fading in dB. lsps holds all
    seven LSPs on a trailing axis in LSP_NAMES order, los_dirs the LOS
    (departure, arrival) (azimuth, zenith) on a trailing axis of 4, and
    rice_k the Rice factors (0 where NLOS); all three are None when only SF
    was computed. los_dirs' departure is az_dep (wrapped) and zen_dep, its
    arrival their reverse.
    """

    d2d: np.ndarray
    az_dep: np.ndarray
    zen_dep: np.ndarray
    los: np.ndarray
    pl: np.ndarray
    sf: np.ndarray
    lsps: np.ndarray | None = None
    los_dirs: np.ndarray | None = None
    rice_k: np.ndarray | None = None


def slow_fading(cfg, ue_ids, ue_xyz, indoor, site_xy, wrap=None) -> SlowFading:
    """LOS state, pathloss and SF of UEs toward every site, and in phase 2
    the seven LSPs, the LOS directions and the Rice factors.

    The run config cfg gives the [lsp_los]/[lsp_nlos] marginals, their
    correlations and decorrelation distances, the seed, [spatial],
    [pathloss] (the LOS probability too), the carrier, the BS height, the
    phase and workers. Rows follow ue_ids, which key the LOS (and
    non-spatial LSP) streams; ue_xyz is (n, 3), indoor (n,) and site_xy
    (sites, 2). wrap is the wrap-around lattice basis, or None. One LSP draw
    per (UE, site) is shared by all cells of the site. With spatial
    correlation the normals come from per-(site, LSP) Gaussian fields at the
    UE position, so nearby UEs receive correlated parameters; each field is
    evaluated over all UEs in chunks of FIELD_CHUNK cosines (at least one UE
    row): each chunk ends in GIL handoffs, which smaller chunks would repeat
    many times per millisecond of cosines. In phase 1 only the fields that
    the SF rows of the mixing factors read are evaluated, as the others
    would enter SF multiplied by exact zeros. The fields run on
    min(workers, fields) threads, this one among them: it starts the others
    (the cosine sums release the GIL), computes the geometry, LOS states and
    pathloss, then evaluates fields beside them. A failure on any thread
    drops the fields not yet started and is raised. Without spatial
    correlation each (UE, site) pair owns a keyed stream, and there are no
    fields and no threads. The per-link stages run in chunks of about
    LINK_CHUNK links. Each value is computed per element or per link, so the
    result is the same at any chunking and thread count.
    """
    states = [(cfg.lsp_los, mixing_factor(cfg.corr_los)),
              (cfg.lsp_nlos, mixing_factor(cfg.corr_nlos))]
    seed, n_terms, all_lsps = cfg.run.master_seed, cfg.spatial.n_terms, cfg.run.phase == 2
    ue_ids, ue_xyz = np.asarray(ue_ids), np.asarray(ue_xyz, dtype=float)
    n_ue, n_site = len(ue_ids), site_xy.shape[0]
    h_ue, indoor = ue_xyz[:, 2:], np.asarray(indoor)[:, None]
    dz = h_ue - cfg.layout.bs_height_m
    sf_rows = np.any([factor[0] != 0.0 for _, factor in states], axis=0)
    used = range(len(LSP_NAMES)) if all_lsps else np.flatnonzero(sf_rows)
    jobs = [(site, int(i)) for site in range(n_site) for i in used if cfg.spatial.enabled]
    threads = max(1, min(cfg.run.workers, len(jobs)))
    plural = "s" * (threads > 1)
    log.info(f"slow fading: {len(jobs)} spatial fields over {threads} thread{plural}")
    waves = field_waves(cfg, jobs)
    scale = math.sqrt(2.0 / n_terms)
    at_ue = np.empty((len(jobs), n_ue))
    # Field indices, the first on top, over one None per thread: each thread
    # pops indices (list.pop is atomic) until it pops a None. On a failure
    # del pending[threads:] drops the indices, so each thread stops after its field.
    pending, failed = [None] * threads + list(range(len(jobs)))[::-1], []
    field_rows = max(1, FIELD_CHUNK // n_terms)

    def drain():
        # Each chunk is cos((kx*x + ky*y) + phase) in two buffers this thread reuses.
        u_buf, v_buf = np.empty((2, min(n_ue, field_rows), n_terms))
        try:
            for k in iter(pending.pop, None):
                kx, ky, phase = waves[k]
                for start in range(0, n_ue, field_rows):
                    rows = slice(start, start + field_rows)
                    x, y = ue_xyz[rows, 0, None], ue_xyz[rows, 1, None]
                    u, v = u_buf[:len(x)], v_buf[:len(x)]
                    np.multiply(kx, x, out=u)
                    u += np.multiply(ky, y, out=v)
                    u += phase
                    at_ue[k, rows] = scale * np.cos(u, out=u).sum(axis=-1)
        except BaseException as exc:
            del pending[threads:]
            failed.append(exc)

    d2d, az_dep, zen_dep, pl = (np.empty((n_ue, n_site)) for _ in range(4))
    los = np.empty((n_ue, n_site), dtype=bool)
    step = max(1, LINK_CHUNK // n_site)
    chunks = [slice(start, start + step) for start in range(0, n_ue, step)]
    helpers = [threading.Thread(target=drain) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        for rows in chunks:
            delta = ue_xyz[rows, None, :2] - site_xy
            if wrap is not None:
                delta = fold_to_nearest_image(delta, wrap).reshape(delta.shape)
            d2d[rows] = np.hypot(delta[..., 0], delta[..., 1])
            d3d = np.hypot(d2d[rows], dz[rows])
            az_dep[rows] = np.arctan2(delta[..., 1], delta[..., 0])
            zen_dep[rows] = np.arccos(np.clip(dz[rows] / d3d, -1.0, 1.0))
            # The first uniform of the stream (seed, STREAM_LOS_STATE, ue, site) per link.
            u = keyed_uniforms(seed, STREAM_LOS_STATE, ue_ids[rows, None], np.arange(n_site))
            los[rows] = u < cfg.pathloss.los_probability(d2d[rows])
            pl[rows] = pathloss_db(
                cfg.pathloss, d3d, h_ue[rows], indoor[rows], los[rows], cfg.run.carrier_hz
            )
        drain()
    finally:
        del pending[threads:]  # indices remain only after a failed per-link stage
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]

    count = len(LSP_NAMES) if all_lsps else 1
    values = np.empty((n_ue, n_site, count))
    job_site, job_lsp = np.array(jobs, dtype=int).reshape(-1, 2).T
    for rows in chunks:
        shape = d2d[rows].shape + (len(LSP_NAMES),)
        if cfg.spatial.enabled:
            normals = np.zeros(shape)
            normals[:, job_site, job_lsp] = at_ue[:, rows].T
        else:
            keys = keyed_generators(seed, STREAM_LSP, ue_ids[rows, None], np.arange(n_site))
            normals = np.array([rng.standard_normal(7) for rng in keys]).reshape(shape)
        lsp_los, lsp_nlos = (
            lsps_from_normals(section, factor, normals, d2d[rows], h_ue[rows], count)
            for section, factor in states
        )
        values[rows] = np.where(los[rows, :, None], lsp_los, lsp_nlos)
    if not all_lsps:
        return SlowFading(d2d, az_dep, zen_dep, los, pl, values[..., 0])
    rice_k = pow10(np.where(los, values[..., 1] / 10.0, -np.inf),
                   "the LOS Rice-factor draw overflowed: K = 10**(k/10) exceeds "
                   "the float range; lower the [lsp_los] k_mu_db or k_sigma_db")
    az = wrap_azimuth(az_dep)
    los_dirs = np.stack([az, zen_dep, wrap_azimuth(az + math.pi), math.pi - zen_dep], -1)
    return SlowFading(d2d, az_dep, zen_dep, los, pl, values[..., 0], values, los_dirs, rice_k)
