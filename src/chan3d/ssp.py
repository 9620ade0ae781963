"""Small-scale parameters: cluster delays, powers, angles, ray offsets, phases, XPR."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import mod_2pi, wrap_azimuth

# Symmetric 20-ray offset basis of the SCM/WINNER family (dimensionless,
# scaled by the per-kind intra-cluster spread factors).
RAY_OFFSETS_20 = np.array(
    [
        0.0447, -0.0447, 0.1413, -0.1413, 0.2492, -0.2492, 0.3715, -0.3715,
        0.5129, -0.5129, 0.6797, -0.6797, 0.8844, -0.8844, 1.1481, -1.1481,
        1.5195, -1.5195, 2.1551, -2.1551,
    ]
)

# Ray partition and extra delays used when splitting a strong cluster into
# sub-clusters (SCME/WINNER convention: 10/6/4 rays at 0/5/10 ns).
N_SPLIT = 2  # strongest clusters split per link
SUBCLUSTER_RAYS = (
    np.array([0, 1, 2, 3, 4, 5, 6, 7, 18, 19]),
    np.array([8, 9, 10, 11, 16, 17]),
    np.array([12, 13, 14, 15]),
)
SUBCLUSTER_DELAYS_S = (0.0, 5e-9, 10e-9)


def cluster_delays(uniforms, ds, r_tau: float) -> np.ndarray:
    """Exponential cluster delays from (link, cluster) uniforms and each link's
    delay spread, sorted per link and shifted so each first delay is zero."""
    ds = np.asarray(ds, dtype=float)
    if np.any(ds <= 0):
        raise ValueError("delay spread must be positive")
    raw = np.sort((-r_tau * ds)[..., None] * np.log(uniforms), axis=-1)
    return raw - raw[..., :1]


def cluster_powers(delays, shadow_db, ds, r_tau: float) -> np.ndarray:
    """Per-cluster powers, exponential in delay with log-normal shadowing
    (shadow_db per cluster); each link's powers sum to 1."""
    scale = (r_tau * np.asarray(ds, dtype=float))[..., None]
    powers = np.exp(-delays * (r_tau - 1.0) / scale) * 10.0 ** (-shadow_db / 10.0)
    return powers / powers.sum(axis=-1, keepdims=True)


def circular_mean(angles, powers):
    """Power-weighted circular mean angle in radians over the last axis."""
    p = np.asarray(powers, dtype=float)
    return np.arctan2((p * np.sin(angles)).sum(axis=-1), (p * np.cos(angles)).sum(axis=-1))


def _rescale_to_spread(angles, powers, target_rad) -> np.ndarray:
    """Scale each row's deviations about its circular mean so its RMS spread
    hits the row's target, in six fixed-point passes.

    Measured on phase-2 draws, the spread then misses its target by about
    1e-12 relative below 55 degrees and by 1e-8 to 4.4e-7 between 60 and 75
    degrees; beyond the circular-spread ceiling no exact match exists.
    Rows run as masked passes: a row whose current spread is zero stops
    there, unchanged, or collapsed onto its mean when its target is zero.
    """
    p = powers / powers.sum(axis=-1, keepdims=True)
    out = np.array(angles, dtype=float)
    target = np.asarray(target_rad, dtype=float)
    live = np.ones(out.shape[:-1], dtype=bool)
    for _ in range(6):
        mean = circular_mean(out, p)
        dev = wrap_azimuth(out - mean[..., None])
        current = np.sqrt((p * dev**2).sum(axis=-1))
        flat = live & (current < 1e-15)
        collapse = flat & (target < 1e-15)
        out[collapse] = mean[collapse, None]
        live &= ~flat
        gain = np.divide(target, current, out=np.zeros_like(current), where=live)
        out = np.where(live[..., None], mean[..., None] + dev * gain[..., None], out)
    return out


def cluster_angles(powers, spread_rad, signs, perturb, mean_rad, zenith):
    """Per-cluster angles of each (kind, link) around its mean direction.

    Stronger clusters land closer to the mean (deviations shaped by the
    cluster powers), each with a random sign (+-1) and a perturbation; the
    deviations are then rescaled so each row's power-weighted circular RMS
    spread matches spread_rad. powers are (link, cluster), shared by every
    kind; signs and perturb are (kind, link, cluster), spread_rad and
    mean_rad (kind, link). zenith flags each kind: zeniths deviate by the
    power depth itself and are reflected into [0, pi], azimuths by its
    square root and are wrapped.
    """
    spread_rad = np.asarray(spread_rad, dtype=float)
    if np.any(spread_rad <= 0):
        raise ValueError("angular spreads must be positive")
    zenith = np.asarray(zenith, dtype=bool)[:, None, None]
    depth = -np.log(np.clip(powers / powers.max(axis=-1, keepdims=True), 1e-30, 1.0))
    shape = np.where(zenith, depth, np.sqrt(depth)) * spread_rad[..., None]
    angles = np.asarray(mean_rad, dtype=float)[..., None] + signs * shape + perturb
    angles = _rescale_to_spread(angles, powers, spread_rad)
    return np.where(zenith, reflect_zenith(angles), wrap_azimuth(angles))


def reflect_zenith(zenith):
    """Mirror zenith angles at the poles back into [0, pi]."""
    z = mod_2pi(np.array(zenith, dtype=float))
    return np.where(z > math.pi, 2.0 * math.pi - z, z)


def expand_subpaths(angles, cfg: SspConfig):
    """Per-ray angles: each kind offset by its own scaled copy of the ray basis.

    Takes the (aod, zod, aoa, zoa) cluster angles, arrays (..., n_clusters),
    and returns them as (..., n_clusters, n_rays); azimuths wrapped, zeniths
    reflected into [0, pi]. The basis and the per-kind scalers c_*_deg come
    from cfg.
    """
    basis = cfg.ray_basis()
    scalers = (cfg.c_aod_deg, cfg.c_zod_deg, cfg.c_aoa_deg, cfg.c_zoa_deg)
    aod, zod, aoa, zoa = (a[..., None] + math.radians(c) * basis for a, c in zip(angles, scalers))
    return wrap_azimuth(aod), reflect_zenith(zod), wrap_azimuth(aoa), reflect_zenith(zoa)


def polarization_matrix(kappa, phases, offdiag_inverse: bool = False) -> np.ndarray:
    """2x2 polarization coupling matrix per ray.

    phases has trailing axis (VV, VH, HV, HH); the off-diagonal magnitude is
    sqrt(kappa) as displayed in the cluster model, or sqrt(1/kappa) with the
    inverse convention.
    """
    kappa = np.asarray(kappa, dtype=float)
    phases = np.asarray(phases, dtype=float)
    cross = np.sqrt(1.0 / kappa) if offdiag_inverse else np.sqrt(kappa)
    mat = (1j * phases).reshape(phases.shape[:-1] + (2, 2))
    np.exp(mat, out=mat)
    mat[..., [0, 1], [1, 0]] *= cross[..., None]  # the VH and HV entries
    return mat


@dataclass
class ClusterSet:
    """Realized small-scale parameters of one link, or of a batch of links.

    Arrays are (n_clusters,) or (n_clusters, n_rays), behind a leading link
    axis for a batch; phases carry a trailing (VV, VH, HV, HH) axis. LOS
    co-polar phases (one per link) are kept for the deterministic ray of
    Rice-weighted synthesis.
    """

    delays_s: np.ndarray
    cluster_powers: np.ndarray
    ray_powers: np.ndarray
    aod: np.ndarray
    zod: np.ndarray
    aoa: np.ndarray
    zoa: np.ndarray
    phases: np.ndarray
    xpr: np.ndarray
    los_phase_vv: float | np.ndarray = 0.0
    los_phase_hh: float | np.ndarray = 0.0

    def __post_init__(self):
        self.delays_s = np.asarray(self.delays_s, dtype=float)
        if np.any(self.delays_s[..., 0] != 0.0) or np.any(np.diff(self.delays_s) < 0):
            raise ValueError("delays must be non-decreasing with first delay 0")
        if np.any(np.abs(np.sum(self.ray_powers, axis=(-2, -1)) - 1.0) > 1e-9):
            raise ValueError("ray powers must sum to 1")
        if np.any(self.xpr <= 0):
            raise ValueError("XPR must be positive")
        if np.any(self.phases < 0) or np.any(self.phases >= 2.0 * math.pi):
            raise ValueError("phases must lie in [0, 2pi)")

    def link(self, i: int | None) -> "ClusterSet":
        """Link i of a batch as views, not rechecked; None: one link as a batch of one."""
        one = object.__new__(ClusterSet)
        one.__dict__.update((name, np.asarray(value)[i]) for name, value in vars(self).items())
        return one

    @property
    def n_rays(self) -> int:
        return self.ray_powers.shape[-1]


@dataclass
class SspConfig:
    """The [ssp] section: cluster and ray counts, delay and power shaping,
    XPR, intra-cluster spread scalers and the optional custom ray basis
    (empty: the first n_rays of RAY_OFFSETS_20)."""

    n_clusters: int = 20
    n_rays: int = 20
    r_tau: float = 2.5
    cluster_shadow_db: float = 3.0
    xpr_mu_db: float = -8.0
    xpr_sigma_db: float = 3.0
    xpr_offdiag: str = "sqrt_kappa"  # sqrt_kappa | sqrt_inv_kappa
    c_aod_deg: float = 5.0
    c_zod_deg: float = 3.0
    c_aoa_deg: float = 11.0
    c_zoa_deg: float = 7.0
    elevation_offset_dep_deg: float = 0.0
    elevation_offset_arr_deg: float = 0.0
    split_strongest: bool = False
    ray_offsets: tuple = ()

    def ray_basis(self) -> np.ndarray:
        """The ray offsets, before the per-kind scalers (symmetric about zero)."""
        if self.ray_offsets:
            return np.array(self.ray_offsets, dtype=float)
        return RAY_OFFSETS_20[: self.n_rays]


def _link_draws(rngs, spreads, cfg: SspConfig) -> tuple:
    """Each link's draws from its own generator, in the one-link order,
    stacked over links: delay uniforms, cluster shadowing, the (kind, link,
    cluster) signs and perturbations, XPR in dB, ray and LOS phases. A sign is
    bit 31 of a 32-bit half, as integers(0, 2) takes it (Lemire's rejection
    never fires at range 2); halves come low first from raw 64-bit words, and
    an odd spare half carries to the next kind, ceil(j n / 2) words by kind j."""
    n, m, two_pi = cfg.n_clusters, cfg.n_rays, 2.0 * math.pi
    counts = np.diff([(j * n + 1) // 2 for j in range(spreads.shape[1] + 1)]).tolist()
    draws = []
    for g, link_spreads in zip(rngs, spreads.tolist()):
        link = [g.random(n), g.normal(0.0, cfg.cluster_shadow_db, n)]
        for count, s in zip(counts, link_spreads):
            link += [g.bit_generator.random_raw(count), g.normal(0.0, s / 7.0, n)]
        link += [g.normal(cfg.xpr_mu_db, cfg.xpr_sigma_db, (n, m))]
        draws.append(link + [g.uniform(0.0, two_pi, (n, m, 4)), g.uniform(0.0, two_pi, 2)])
    u, shadow, *signed, xpr_db, phases, los_phases = [np.array(column) for column in zip(*draws)]
    halves = np.hstack(signed[0::2]).astype("<u8").view("<u4")  # low half first on any host
    signs = (halves >> 31).reshape(-1, 4, n).transpose(1, 0, 2).astype(np.int64) * 2 - 1
    return u, shadow, signs, np.stack(signed[1::2]), xpr_db, phases, los_phases


def generate_cluster_set(lsps, los_departure, los_arrival, cfg: SspConfig, rngs) -> ClusterSet:
    """Full small-scale draw for a batch of links, following the generation
    pipeline: delays, powers, cluster angles, ray expansion, polarization.

    lsps is (link, 7) in LSP_NAMES order; los_departure and los_arrival are
    (link, 2) arrays of (azimuth, zenith) in radians; rngs yields one
    Generator per link, each drawn in full before the next is taken.
    Returns a ClusterSet whose arrays have a leading link axis. A short loop
    first makes each link's draws from its own generator, in the one-link
    order; one array pass over (link, cluster[, ray]) then does the math,
    rounding as the one-link pass does.
    """
    lsps = np.asarray(lsps, dtype=float)
    ds = lsps[:, 2]
    # ASD, ESD, ASA, ESA: departure azimuth/zenith, then arrival, the order of the angle draws.
    spreads = np.radians(lsps[:, [3, 5, 4, 6]])
    u, shadow, signs, perturb, xpr_db, phases, los_phases = _link_draws(rngs, spreads, cfg)

    delays = cluster_delays(u, ds, cfg.r_tau)
    powers = cluster_powers(delays, shadow, ds, cfg.r_tau)
    dep = np.array(los_departure, dtype=float)
    arr = np.array(los_arrival, dtype=float)
    dep[:, 1] += math.radians(cfg.elevation_offset_dep_deg)
    arr[:, 1] += math.radians(cfg.elevation_offset_arr_deg)
    means = np.hstack([dep, arr]).T  # the (azimuth, zenith) means of each kind
    angles = cluster_angles(powers, spreads.T, signs, perturb, means, [False, True, False, True])
    aod, zod, aoa, zoa = expand_subpaths(angles, cfg)
    clusters = ClusterSet(
        delays_s=delays,
        cluster_powers=powers,
        ray_powers=np.repeat(powers[..., None] / cfg.n_rays, cfg.n_rays, axis=-1),
        aod=aod, zod=zod, aoa=aoa, zoa=zoa,
        phases=phases,
        xpr=10.0 ** (xpr_db / 10.0),
        los_phase_vv=los_phases[:, 0],
        los_phase_hh=los_phases[:, 1],
    )
    return split_strongest_clusters(clusters) if cfg.split_strongest else clusters


def split_strongest_clusters(clusters: ClusterSet) -> ClusterSet:
    """Subdivide each link's N_SPLIT strongest clusters into three delay-offset sub-clusters.

    Takes a batch (leading link axis). Rays are partitioned per the fixed
    10/6/4 mapping; rays outside a sub-cluster get zero power there, so
    downstream synthesis is unchanged. The kept clusters come first, then
    the sub-clusters; a stable sort by delay orders them. Requires the
    20-ray layout.
    """
    if clusters.n_rays != 20:
        raise ValueError("sub-cluster splitting is defined for 20-ray clusters")
    by_power = np.argsort(clusters.cluster_powers, axis=-1)
    strongest, keep = by_power[:, -N_SPLIT:], np.sort(by_power[:, :-N_SPLIT], axis=-1)
    links = np.arange(by_power.shape[0])[:, None]
    source = np.concatenate([keep, np.repeat(strongest, len(SUBCLUSTER_RAYS), axis=-1)], axis=-1)
    n_keep = keep.shape[1]
    extra = np.concatenate([np.zeros(n_keep), np.tile(SUBCLUSTER_DELAYS_S, N_SPLIT)])
    masks = np.ones((source.shape[1], clusters.n_rays))
    for k, rays in enumerate(SUBCLUSTER_RAYS):
        masks[n_keep + k::len(SUBCLUSTER_RAYS)] = np.isin(np.arange(clusters.n_rays), rays)
    ray_powers = clusters.ray_powers[links, source] * masks
    cluster_powers = clusters.cluster_powers[links, source]
    cluster_powers[:, n_keep:] = ray_powers[:, n_keep:].sum(axis=-1)  # each sub-cluster's rays
    delays = clusters.delays_s[links, source] + extra
    order = links, np.argsort(delays, axis=-1, kind="stable")
    ray_fields = {
        name: getattr(clusters, name)[links, source][order]
        for name in ("aod", "zod", "aoa", "zoa", "xpr", "phases")
    }
    return ClusterSet(
        delays_s=delays[order],
        cluster_powers=cluster_powers[order],
        ray_powers=ray_powers[order],
        los_phase_vv=clusters.los_phase_vv,
        los_phase_hh=clusters.los_phase_hh,
        **ray_fields,
    )
