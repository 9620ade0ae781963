"""Per-tap MIMO channel assembly from geometry, antennas, and small-scale draws."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import LinkEnd, element_amplitude, port_factors
from .geom import (
    SPEED_OF_LIGHT,
    rotation_x,
    rotation_z,
    spherical_basis,
    unit_vectors,
)
from .ssp import ClusterSet, polarization_matrix


def end_fields(end: LinkEnd, azimuth, zenith, model: str) -> np.ndarray:
    """Per-slant (V, H) field amplitudes of an end toward each link's
    directions, shape (link, ..., 2, n_slants) for (link, ...) angles, at the
    end's bearing: one for all links, or each link's own. The slant model
    splits the pattern amplitude angle-independently; the rotated model
    transforms a vertically polarized element field through each link's
    element orientation, one (direction, 3) block per link.
    """
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith, dtype=float))
    bearing = np.broadcast_to(end.bearing_rad, az.shape[:1])
    out = np.empty(az.shape + (2, end.slants.size), dtype=complex)
    if model == "slant":
        local_az = az - bearing.reshape(az.shape[:1] + (1,) * (az.ndim - 1))  # the pattern wraps it
        amp = element_amplitude(end.pattern, local_az, zen)
        out[..., 0, :] = amp[..., None] * np.cos(end.slants)
        out[..., 1, :] = amp[..., None] * np.sin(end.slants)
        return out

    blocks = (len(az), -1, 3)  # (link, direction, 3)
    dirs = unit_vectors(az, zen).reshape(blocks)
    et_g, ep_g = (e.reshape(blocks) for e in spherical_basis(az, zen))
    for i, slant in enumerate(end.slants):
        rot = rotation_z(bearing) @ rotation_x(float(slant))  # (link, 3, 3)
        local = dirs @ rot  # row-vector form of R^T @ v
        local_az = np.arctan2(local[..., 1], local[..., 0])
        local_zen = np.arccos(np.clip(local[..., 2], -1.0, 1.0))
        amp = element_amplitude(end.pattern, local_az, local_zen)
        et_local, _ = spherical_basis(local_az, local_zen)
        field_global = (amp[..., None] * et_local) @ rot.transpose(0, 2, 1)
        out[..., 0, i] = np.sum(field_global * et_g, axis=-1).reshape(az.shape)
        out[..., 1, i] = np.sum(field_global * ep_g, axis=-1).reshape(az.shape)
    return out


@dataclass
class RayTerms:
    """The ray terms that no TX end enters, behind a leading link axis: the
    RX ports' fields times their array factors, polarization matrices,
    departure wave vectors and Doppler rates."""

    g_r: np.ndarray
    alpha: np.ndarray
    k_dep: np.ndarray
    omega: np.ndarray


@dataclass
class UeLinks:
    """A UE's links as one record of arrays with a leading link axis: the UE
    end, the cluster batch, the LOS (departure, arrival) (azimuth, zenith)
    pairs (link, 4), each link's Rice K and slow fading in dB, and the ray
    terms of the diffuse and LOS rays. toward(tx) views them toward a TX end."""

    rx: LinkEnd
    clusters: ClusterSet
    los: np.ndarray
    rice_k: np.ndarray
    slow_fading_db: np.ndarray
    rays: RayTerms
    los_rays: RayTerms

    def toward(self, tx: LinkEnd) -> LinkChunk:
        return LinkChunk(self, tx, self.rx, self.clusters)


@dataclass
class LinkChunk:
    """A UeLinks record's links toward a TX end (each link at its own
    bearing and steps, or all at one): what synthesize reads."""

    ue: UeLinks
    tx: LinkEnd
    rx: LinkEnd
    clusters: ClusterSet


def ue_links(
    rx: LinkEnd, clusters: ClusterSet, los, rice_k, slow_fading_db, carrier_hz: float,
    velocity_mps, xpr_offdiag_inverse: bool = False, polarization_model: str = "slant",
) -> UeLinks:
    """A UE's links toward its end rx as a UeLinks record, their ray terms in
    one array pass over their cluster batch. los is (link, 4), read only
    where K > 0; rice_k and slow_fading_db hold one value per link. The RX
    ports' factors come from antenna.port_factors: 1 for a UE whose one
    element sits at the origin, with no exp."""
    los = np.asarray(los, dtype=float).reshape(-1, 4)
    rice_k = np.asarray(rice_k, dtype=float)
    if carrier_hz <= 0:
        raise ValueError("carrier frequency must be positive")
    if np.any(rice_k < 0):
        raise ValueError("Rice factor must be non-negative")
    if np.isnan(los[rice_k > 0]).any():
        raise ValueError("LOS angles required when the Rice factor is positive")
    if polarization_model not in ("slant", "rotated"):
        raise ValueError("polarization model must be 'slant' or 'rotated'")
    cs, model = clusters, polarization_model
    k0 = 2.0 * math.pi * carrier_hz / SPEED_OF_LIGHT
    k_arr = k0 * unit_vectors(cs.aoa, cs.zoa)
    # A (link, 1, 3) LOS wave vector: each link's products round as one link's do.
    k_los = k0 * unit_vectors(los[:, 2:3], los[:, 3:])
    a_r = port_factors(rx.lattice, rx.weights, k_arr, rx.steps.T)  # (L, N, M, U)
    a_los = port_factors(rx.lattice, rx.weights, k_los, rx.steps.T)  # (L, 1, U)
    alpha_los = np.zeros((los.shape[0], 2, 2), dtype=complex)
    alpha_los[:, 0, 0] = np.exp(1j * cs.los_phase_vv)
    alpha_los[:, 1, 1] = np.exp(1j * cs.los_phase_hh)
    rays = RayTerms(
        end_fields(rx, cs.aoa, cs.zoa, model)[..., rx.slant_index] * a_r[..., None, :],
        polarization_matrix(cs.xpr, cs.phases, xpr_offdiag_inverse),
        k0 * unit_vectors(cs.aod, cs.zod),
        k_arr @ velocity_mps,
    )
    los_rays = RayTerms(
        end_fields(rx, los[:, 2], los[:, 3], model)[..., rx.slant_index] * a_los,
        alpha_los,
        k0 * unit_vectors(los[:, 0], los[:, 1]),
        (k_los @ velocity_mps)[:, 0],
    )
    return UeLinks(rx, cs, los, rice_k, np.asarray(slow_fading_db, float), rays, los_rays)


def synthesize(chunk: LinkChunk, times, g_t: np.ndarray, g_los: np.ndarray) -> np.ndarray:
    """Evaluate every cluster tap of a record's links at the requested times, per TX port.

    Returns the (link, n_times, n_clusters, n_ports, n_rx) taps; tap n of link
    l has the delay chunk.clusters.delays_s[l, n]. Tap 0 carries the Rice
    LOS ray when the link's K > 0: the diffuse rays of every cluster are
    scaled by 1/(K+1) in power and the LOS ray by K/(K+1). g_t and g_los
    are the TX end's fields toward the record's rays and LOS departures, per
    slant; each port (of every point) multiplies its slant's bilinear term
    by its array factor (antenna.port_factors) on its link's TX steps. One
    pass over (link, cluster, ray, port), in a lone link's order of products,
    forms the diffuse rays; the LOS ray runs per LOS link. The tap work scales with
    the setup's ports (all its points'), where element taps scaled with its
    elements: more only if the ports outnumber the elements."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("at least one time sample is required")
    ue, tx = chunk.ue, chunk.tx
    rays, los, rice_k = ue.rays, ue.los_rays, ue.rice_k
    scale = 10.0 ** (-ue.slow_fading_db / 20.0)
    diffuse = scale * np.sqrt(1.0 / (rice_k + 1.0))
    steps = np.broadcast_to(tx.steps, (len(scale), 2, 3)).transpose(0, 2, 1)  # (link, 3, 2)
    weights = tx.weights.reshape(-1, tx.n_elements)  # every point's ports
    bilinear = np.einsum("...pu,...pq,...qs->...su", rays.g_r, rays.alpha, g_t)
    np.multiply(np.sqrt(chunk.clusters.ray_powers)[..., None, None], bilinear, out=bilinear)
    terms = bilinear[..., tx.slant_index, :]  # (link, N, M, port, U)
    terms *= port_factors(tx.lattice, weights, rays.k_dep, steps[:, None])[..., None]
    taps = np.empty((len(scale), times.size) + terms.shape[1:2] + terms.shape[3:], dtype=complex)
    for ti, t in enumerate(times):
        doppler = np.exp(1j * rays.omega * t)
        taps[:, ti] = diffuse[:, None, None, None] * np.einsum("lnmsu,lnm->lnsu", terms, doppler)
    for j in np.flatnonzero(rice_k > 0):
        g_r, alpha, k_dep, omega = (field[j] for field in vars(los).values())
        bilinear = np.einsum("...pu,...pq,...qs->...su", g_r, alpha, g_los[j])
        factors = port_factors(tx.lattice, weights, k_dep, steps[j])
        los_term = bilinear[tx.slant_index] * factors[:, None]
        los_scale = scale[j] * math.sqrt(rice_k[j] / (rice_k[j] + 1.0))
        for ti, t in enumerate(times):
            taps[j, ti, 0] += los_scale * los_term * np.exp(1j * omega * t)
    if not np.all(np.isfinite(taps.view(float))):
        raise ValueError("tap matrices must be finite")
    return taps
