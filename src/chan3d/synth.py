"""Per-tap MIMO channel assembly from geometry, antennas, and small-scale draws."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import PatternSpec, element_amplitude, response_phases
from .geom import (
    SPEED_OF_LIGHT,
    rotation_x,
    rotation_z,
    spherical_basis,
    unit_vectors,
)
from .ssp import ClusterSet, polarization_matrix


@dataclass
class LinkEnd:
    """One side of a link: element positions (frame-aligned offsets in meters),
    slants, the element pattern (None = isotropic 0 dBi) and its bearing.

    The elements of one slant share one field pattern: slants holds the
    distinct slants and slant_index each element's index into them.
    """

    positions_m: np.ndarray
    slant_rad: np.ndarray
    pattern: PatternSpec | None = None
    bearing_rad: float = 0.0

    def __post_init__(self):
        self.positions_m = np.asarray(self.positions_m, dtype=float).reshape(-1, 3)
        self.slant_rad = np.asarray(self.slant_rad, dtype=float).reshape(-1)
        if self.slant_rad.size != self.positions_m.shape[0]:
            raise ValueError("one slant per element required")
        self.slants, self.slant_index = np.unique(self.slant_rad, return_inverse=True)

    @property
    def n_elements(self) -> int:
        return self.positions_m.shape[0]


def end_fields(ends, azimuth, zenith, model: str) -> np.ndarray:
    """Per-slant (V, H) field amplitudes of each link's end toward its
    directions, shape (link, ..., 2, n_slants) for (link, ...) angles. ends
    holds one LinkEnd per link, or one for all, differing only in bearing.
    The slant model splits the pattern amplitude angle-independently; the
    rotated model transforms a vertically polarized element field through
    each link's element orientation, one (direction, 3) block per link.
    """
    end = ends[0]
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith, dtype=float))
    bearing = np.broadcast_to([e.bearing_rad for e in ends], az.shape[:1])
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
    """The ray terms that no TX end enters, behind a leading link axis: RX
    fields per RX slant, polarization matrices, departure wave vectors, RX
    phases and Doppler rates."""

    g_r: np.ndarray
    alpha: np.ndarray
    k_dep: np.ndarray
    a_r: np.ndarray
    omega: np.ndarray


@dataclass
class UeLinks:
    """A UE's links as one record of arrays with a leading link axis: the UE
    end, the cluster batch, the LOS (departure, arrival) (azimuth, zenith)
    pairs (link, 4), each link's Rice K and slow fading in dB, the
    polarization model, and the terms of the diffuse rays and of the LOS ray
    that every TX setup shares. chunk(rows, ends) views rows."""

    rx: LinkEnd
    clusters: ClusterSet
    los: np.ndarray
    rice_k: np.ndarray
    slow_fading_db: np.ndarray
    polarization_model: str
    rays: RayTerms
    los_rays: RayTerms

    def chunk(self, rows: slice, ends: list) -> LinkChunk:
        return LinkChunk(self, rows, ends[rows], ends[rows][0], self.rx, self.clusters.link(rows))


@dataclass
class LinkChunk:
    """The links rows (a slice) of a UeLinks record toward their TX ends, of
    one element layout, with their clusters only: what synthesize reads."""

    ue: UeLinks
    rows: slice
    ends: list
    tx: LinkEnd
    rx: LinkEnd
    clusters: ClusterSet


def ue_links(
    rx: LinkEnd, clusters: ClusterSet, los, rice_k, slow_fading_db, carrier_hz: float,
    velocity_mps, xpr_offdiag_inverse: bool = False, polarization_model: str = "slant",
) -> UeLinks:
    """A UE's links toward its end rx as a UeLinks record, their ray terms in
    one array pass over their cluster batch. los is (link, 4), read only
    where K > 0; rice_k and slow_fading_db hold one value per link."""
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
    alpha_los = np.zeros((los.shape[0], 2, 2), dtype=complex)
    alpha_los[:, 0, 0] = np.exp(1j * cs.los_phase_vv)
    alpha_los[:, 1, 1] = np.exp(1j * cs.los_phase_hh)
    rays = RayTerms(
        end_fields([rx], cs.aoa, cs.zoa, model),  # (L, N, M, 2, RX slants)
        polarization_matrix(cs.xpr, cs.phases, xpr_offdiag_inverse),
        k0 * unit_vectors(cs.aod, cs.zod),
        response_phases(rx.positions_m, k_arr),  # (L, N, M, U)
        k_arr @ velocity_mps,
    )
    los_rays = RayTerms(
        end_fields([rx], los[:, 2], los[:, 3], model),
        alpha_los,
        k0 * unit_vectors(los[:, 0], los[:, 1]),
        response_phases(rx.positions_m, k_los)[:, 0],
        (k_los @ velocity_mps)[:, 0],
    )
    return UeLinks(rx, cs, los, rice_k, np.asarray(slow_fading_db, float), model, rays, los_rays)


def synthesize(chunk: LinkChunk, times, g_t: np.ndarray, g_los: np.ndarray) -> np.ndarray:
    """Evaluate every cluster tap of a chunk's links at the requested times, per TX element.

    Returns the (link, n_times, n_clusters, n_tx, n_rx) taps; tap n of link
    l has the delay chunk.clusters.delays_s[l, n]. Tap 0 carries the Rice
    LOS ray when the link's K > 0: the diffuse rays of every cluster are
    scaled by 1/(K+1) in power and the LOS ray by K/(K+1). g_t and g_los
    are the record's TX fields toward its rays and LOS departures. One pass
    over (link, cluster, ray, element), in a lone link's order of products,
    forms the diffuse rays; the LOS ray runs per LOS link."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("at least one time sample is required")
    ue, rows, tx, rx = chunk.ue, chunk.rows, chunk.tx, chunk.rx
    rays, los, gather = ue.rays, ue.los_rays, (tx.slant_index[:, None], rx.slant_index)
    rice_k = ue.rice_k[rows]
    scale = 10.0 ** (-ue.slow_fading_db[rows] / 20.0)
    diffuse = scale * np.sqrt(1.0 / (rice_k + 1.0))
    bilinear = np.einsum("...pu,...pq,...qs->...su", rays.g_r[rows], rays.alpha[rows], g_t[rows])
    np.multiply(np.sqrt(chunk.clusters.ray_powers)[..., None, None], bilinear, out=bilinear)
    positions = np.stack([end.positions_m for end in chunk.ends]).transpose(0, 2, 1)
    a_t = 1j * (rays.k_dep[rows] @ positions[:, None])  # (link, N, M, S): each link's own end
    terms = bilinear[(Ellipsis, *gather)]
    terms *= np.exp(a_t, out=a_t)[..., None]
    terms *= rays.a_r[rows][..., None, :]
    taps = np.empty((len(scale), times.size) + terms.shape[1:2] + terms.shape[3:], dtype=complex)
    for ti, t in enumerate(times):
        doppler = np.exp(1j * rays.omega[rows] * t)
        taps[:, ti] = diffuse[:, None, None, None] * np.einsum("lnmsu,lnm->lnsu", terms, doppler)
    for j, (k, end) in enumerate(zip(rice_k, chunk.ends)):
        if k > 0:
            g_r, alpha, k_dep, a_r, omega = (field[rows][j] for field in vars(los).values())
            bilinear = np.einsum("...pu,...pq,...qs->...su", g_r, alpha, g_los[rows][j])
            los_term = bilinear[gather] * response_phases(end.positions_m, k_dep)[:, None] * a_r
            los_scale = scale[j] * math.sqrt(k / (k + 1.0))
            for ti, t in enumerate(times):
                taps[j, ti, 0] += los_scale * los_term * np.exp(1j * omega * t)
    if not np.all(np.isfinite(taps.view(float))):
        raise ValueError("tap matrices must be finite")
    return taps


def to_ports(taps: np.ndarray, port_weights: np.ndarray) -> np.ndarray:
    """(..., time, tap, TX element, RX) taps seen through the TX (n_ports,
    n_elements) port weight matrix. Element taps are linear in the weights,
    so one synthesis serves every weight matrix of the same array."""
    return np.einsum("pk,...ku->...pu", port_weights, taps)

