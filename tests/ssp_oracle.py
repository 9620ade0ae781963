"""Per-link small-scale draw: the reference form of ``ssp.generate_cluster_set``.

This is the one-link pipeline the batched kernel replaced, kept verbatim as a
test oracle: one generator per link, the same draws in the same order, and
scalar math per link. ``tests/test_ssp.py`` checks with ``np.array_equal``
that the batched kernel gives the same bytes for every link of a batch.
``cluster_angles_per_kind`` is the batch-of-links, one-kind-at-a-time form
of ``ssp.cluster_angles``, which runs every angle kind in one pass.
"""
import math

import numpy as np

from chan3d.geom import wrap_azimuth
from chan3d.ssp import (
    SUBCLUSTER_DELAYS_S,
    SUBCLUSTER_RAYS,
    ClusterSet,
    SspConfig,
    _rescale_to_spread,
    reflect_zenith,
)


def generate_delays(ds: float, n_clusters: int, r_tau: float, rng: np.random.Generator) -> np.ndarray:
    """Exponential cluster delays, sorted and shifted so the first is zero."""
    if ds <= 0:
        raise ValueError("delay spread must be positive")
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    raw = -r_tau * ds * np.log(rng.random(n_clusters))
    raw.sort()
    return raw - raw[0]


def generate_cluster_powers(delays, ds, r_tau, shadow_sigma_db, rng) -> np.ndarray:
    """Per-cluster powers, exponential in delay with log-normal shadowing, sum 1."""
    delays = np.asarray(delays, dtype=float)
    shadow = rng.normal(0.0, shadow_sigma_db, delays.shape)
    powers = np.exp(-delays * (r_tau - 1.0) / (r_tau * ds)) * 10.0 ** (-shadow / 10.0)
    return powers / powers.sum()


def circular_mean(angles, powers) -> float:
    """Power-weighted circular mean angle in radians."""
    p = np.asarray(powers, dtype=float)
    return float(np.arctan2((p * np.sin(angles)).sum(), (p * np.cos(angles)).sum()))


def rescale_to_spread(angles, powers, target_rad: float, passes: int = 6) -> np.ndarray:
    """Scale deviations about the circular mean so the RMS spread hits the target.

    Zero current spread returns the angles unchanged; a zero target then
    collapses every angle onto the mean.
    """
    p = np.asarray(powers, dtype=float) / np.asarray(powers, dtype=float).sum()
    out = np.asarray(angles, dtype=float).copy()
    for _ in range(passes):
        mean = circular_mean(out, p)
        dev = np.asarray(wrap_azimuth(out - mean))
        current = math.sqrt(float((p * dev**2).sum()))
        if current < 1e-15:
            return np.full_like(out, mean) if target_rad < 1e-15 else out
        out = mean + dev * (target_rad / current)
    return out


def generate_cluster_angles(
    azimuth_spread_deg, zenith_spread_deg, powers, los_angle, rng,
    elevation_mean_offset_deg: float = 0.0,
):
    """Per-cluster azimuth and zenith angles around the LOS direction, an
    (azimuth, zenith) pair."""
    los_azimuth, los_zenith = los_angle
    if azimuth_spread_deg <= 0 or zenith_spread_deg <= 0:
        raise ValueError("angular spreads must be positive")
    p = np.asarray(powers, dtype=float)
    rel = np.clip(p / p.max(), 1e-30, 1.0)
    az_spread = math.radians(azimuth_spread_deg)
    zen_spread = math.radians(zenith_spread_deg)

    az_shape = np.sqrt(-np.log(rel)) * az_spread
    sign = rng.integers(0, 2, p.size) * 2 - 1
    perturb = rng.normal(0.0, az_spread / 7.0, p.size)
    azimuth = los_azimuth + sign * az_shape + perturb
    azimuth = np.asarray(wrap_azimuth(rescale_to_spread(azimuth, p, az_spread)))

    zen_shape = -np.log(rel) * zen_spread
    sign = rng.integers(0, 2, p.size) * 2 - 1
    perturb = rng.normal(0.0, zen_spread / 7.0, p.size)
    mean_zen = los_zenith + math.radians(elevation_mean_offset_deg)
    zenith = mean_zen + sign * zen_shape + perturb
    zenith = reflect_zenith(rescale_to_spread(zenith, p, zen_spread))
    return azimuth, zenith


def cluster_angles_per_kind(powers, spread_rad, signs, perturb, mean_rad, zenith: bool = False):
    """One angle kind's per-cluster azimuths (or zeniths) of each link around
    its mean direction: powers, signs and perturb are (link, cluster);
    spread_rad and mean_rad are per link."""
    spread_rad = np.asarray(spread_rad, dtype=float)
    if np.any(spread_rad <= 0):
        raise ValueError("angular spreads must be positive")
    depth = -np.log(np.clip(powers / powers.max(axis=-1, keepdims=True), 1e-30, 1.0))
    shape = (depth if zenith else np.sqrt(depth)) * spread_rad[..., None]
    angles = np.asarray(mean_rad, dtype=float)[..., None] + signs * shape + perturb
    angles = _rescale_to_spread(angles, powers, spread_rad)
    return reflect_zenith(angles) if zenith else wrap_azimuth(angles)


def expand_subpaths(aod, zod, aoa, zoa, cfg: SspConfig):
    """Per-ray angles of one link: each kind offset by its scaled ray basis."""
    a = cfg.ray_basis()[np.newaxis, :]
    return (
        np.asarray(wrap_azimuth(aod[:, None] + math.radians(cfg.c_aod_deg) * a)),
        reflect_zenith(zod[:, None] + math.radians(cfg.c_zod_deg) * a),
        np.asarray(wrap_azimuth(aoa[:, None] + math.radians(cfg.c_aoa_deg) * a)),
        reflect_zenith(zoa[:, None] + math.radians(cfg.c_zoa_deg) * a),
    )


def draw_polarization(rng, xpr_mu_db: float, xpr_sigma_db: float, shape=()):
    """Log-normal XPR (linear) and four i.i.d. uniform phases per ray."""
    kappa = 10.0 ** (rng.normal(xpr_mu_db, xpr_sigma_db, shape) / 10.0)
    phases = rng.uniform(0.0, 2.0 * math.pi, tuple(np.atleast_1d(shape)) + (4,))
    return kappa, phases


def split_strongest_clusters(clusters: ClusterSet, n_split: int = 2) -> ClusterSet:
    """Subdivide the strongest clusters into three delay-offset sub-clusters."""
    if clusters.n_rays != 20:
        raise ValueError("sub-cluster splitting is defined for 20-ray clusters")
    strongest = np.argsort(clusters.cluster_powers)[-n_split:]
    keep = [i for i in range(len(clusters.delays_s)) if i not in strongest]

    rows = {
        "delays": [clusters.delays_s[keep]],
        "cpow": [clusters.cluster_powers[keep]],
        "rpow": [clusters.ray_powers[keep]],
    }
    ray_fields = {
        name: [getattr(clusters, name)[keep]] for name in ("aod", "zod", "aoa", "zoa", "xpr")
    }
    phase_rows = [clusters.phases[keep]]
    for i in strongest:
        for rays, extra in zip(SUBCLUSTER_RAYS, SUBCLUSTER_DELAYS_S):
            mask = np.zeros(clusters.n_rays)
            mask[rays] = 1.0
            rows["delays"].append(np.array([clusters.delays_s[i] + extra]))
            rows["rpow"].append((clusters.ray_powers[i] * mask)[None, :])
            rows["cpow"].append(rows["rpow"][-1].sum(axis=-1))  # over all 20 rays, masked
            for name in ray_fields:
                ray_fields[name].append(getattr(clusters, name)[i][None, :])
            phase_rows.append(clusters.phases[i][None, :])

    delays = np.concatenate(rows["delays"])
    order = np.argsort(delays, kind="stable")
    return ClusterSet(
        delays_s=delays[order],
        cluster_powers=np.concatenate(rows["cpow"])[order],
        ray_powers=np.concatenate(rows["rpow"])[order],
        aod=np.concatenate(ray_fields["aod"])[order],
        zod=np.concatenate(ray_fields["zod"])[order],
        aoa=np.concatenate(ray_fields["aoa"])[order],
        zoa=np.concatenate(ray_fields["zoa"])[order],
        phases=np.concatenate(phase_rows)[order],
        xpr=np.concatenate(ray_fields["xpr"])[order],
        los_phase_vv=clusters.los_phase_vv,
        los_phase_hh=clusters.los_phase_hh,
    )


def generate_cluster_set(lsps, los_departure, los_arrival, cfg: SspConfig, rng) -> ClusterSet:
    """Full small-scale draw for one link: delays, powers, cluster angles,
    ray expansion, polarization. lsps are the link's seven LSPs in
    LSP_NAMES order (sf, k, ds, asd, asa, esd, esa)."""
    _, _, ds, asd, asa, esd, esa = lsps
    delays = generate_delays(ds, cfg.n_clusters, cfg.r_tau, rng)
    powers = generate_cluster_powers(delays, ds, cfg.r_tau, cfg.cluster_shadow_db, rng)
    aod, zod = generate_cluster_angles(asd, esd, powers, los_departure, rng, cfg.elevation_offset_dep_deg)
    aoa, zoa = generate_cluster_angles(asa, esa, powers, los_arrival, rng, cfg.elevation_offset_arr_deg)
    ray_aod, ray_zod, ray_aoa, ray_zoa = expand_subpaths(aod, zod, aoa, zoa, cfg)
    kappa, phases = draw_polarization(
        rng, cfg.xpr_mu_db, cfg.xpr_sigma_db, (cfg.n_clusters, cfg.n_rays)
    )
    los_phases = rng.uniform(0.0, 2.0 * math.pi, 2)
    clusters = ClusterSet(
        delays_s=delays,
        cluster_powers=powers,
        ray_powers=np.repeat(powers[:, None] / cfg.n_rays, cfg.n_rays, axis=1),
        aod=ray_aod,
        zod=ray_zod,
        aoa=ray_aoa,
        zoa=ray_zoa,
        phases=phases,
        xpr=kappa,
        los_phase_vv=float(los_phases[0]),
        los_phase_hh=float(los_phases[1]),
    )
    if cfg.split_strongest:
        clusters = split_strongest_clusters(clusters)
    return clusters
