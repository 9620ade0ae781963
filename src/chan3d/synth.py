"""Per-tap MIMO channel assembly from geometry, antennas, and small-scale draws."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .antenna import PatternSpec, element_gain_db, response_phases
from .geom import (
    SPEED_OF_LIGHT,
    rotation_x,
    rotation_z,
    spherical_basis,
    unit_vectors,
    wrap_azimuth,
)
from .ssp import ClusterSet, polarization_matrix


@dataclass
class LinkEnd:
    """One side of a link: element positions (frame-aligned offsets in meters),
    slants, the element pattern (None = isotropic 0 dBi) and its bearing."""

    positions_m: np.ndarray
    slant_rad: np.ndarray
    pattern: PatternSpec | None = None
    bearing_rad: float = 0.0

    def __post_init__(self):
        self.positions_m = np.asarray(self.positions_m, dtype=float).reshape(-1, 3)
        self.slant_rad = np.asarray(self.slant_rad, dtype=float).reshape(-1)
        if self.slant_rad.size != self.positions_m.shape[0]:
            raise ValueError("one slant per element required")

    @property
    def n_elements(self) -> int:
        return self.positions_m.shape[0]


@dataclass
class LinkContext:
    """Everything needed to evaluate the cluster channel of one link. The LOS
    departure and arrival directions are (azimuth, zenith) pairs in radians."""

    tx: LinkEnd
    rx: LinkEnd
    clusters: ClusterSet
    slow_fading_db: float
    carrier_hz: float
    velocity_mps: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rice_k_linear: float = 0.0
    los_departure: tuple | None = None
    los_arrival: tuple | None = None
    xpr_offdiag_inverse: bool = False
    polarization_model: str = "slant"  # slant | rotated

    def __post_init__(self):
        self.velocity_mps = np.asarray(self.velocity_mps, dtype=float).reshape(3)
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.rice_k_linear < 0:
            raise ValueError("Rice factor must be non-negative")
        if self.polarization_model not in ("slant", "rotated"):
            raise ValueError("polarization model must be 'slant' or 'rotated'")


def _end_fields(end: LinkEnd, azimuth, zenith, model: str) -> np.ndarray:
    """Per-element (V, H) field amplitudes toward each direction.

    Returns shape (..., 2, n_elements). The slant model splits the pattern
    amplitude angle-independently; the rotated model transforms a vertically
    polarized element field through the element orientation.
    """
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith, dtype=float))
    out = np.empty(az.shape + (2, end.n_elements), dtype=complex)
    if model == "slant":
        local_az = wrap_azimuth(az - end.bearing_rad)
        if end.pattern is None:
            amp = np.ones_like(az)
        else:
            amp = np.sqrt(10.0 ** (element_gain_db(end.pattern, local_az, zen) / 10.0))
        out[..., 0, :] = amp[..., None] * np.cos(end.slant_rad)
        out[..., 1, :] = amp[..., None] * np.sin(end.slant_rad)
        return out

    dirs = unit_vectors(az, zen)
    et_g, ep_g = spherical_basis(az, zen)
    for slant in np.unique(end.slant_rad):
        members = end.slant_rad == slant
        rot = rotation_z(end.bearing_rad) @ rotation_x(float(slant))
        local = dirs @ rot  # row-vector form of R^T @ v
        local_az = np.arctan2(local[..., 1], local[..., 0])
        local_zen = np.arccos(np.clip(local[..., 2], -1.0, 1.0))
        if end.pattern is None:
            amp = np.ones_like(local_az)
        else:
            amp = np.sqrt(10.0 ** (element_gain_db(end.pattern, local_az, local_zen) / 10.0))
        et_local, _ = spherical_basis(local_az, local_zen)
        field_global = (amp[..., None] * et_local) @ rot.T
        out[..., 0, members] = np.sum(field_global * et_g, axis=-1)[..., None]
        out[..., 1, members] = np.sum(field_global * ep_g, axis=-1)[..., None]
    return out


def _ray_terms(ctx: LinkContext):
    """Static tap contributions and Doppler rates of every (cluster, ray).

    Returns (terms, omega): terms is (n_clusters, n_rays, n_tx, n_rx) holding
    sqrt(P) * (gR^T a gT) * aT * aR, omega the per-ray k_arr . v in rad/s.
    """
    cs = ctx.clusters
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    g_t = _end_fields(ctx.tx, cs.aod, cs.zod, ctx.polarization_model)  # (N, M, 2, S)
    g_r = _end_fields(ctx.rx, cs.aoa, cs.zoa, ctx.polarization_model)  # (N, M, 2, U)
    alpha = polarization_matrix(cs.xpr, cs.phases, ctx.xpr_offdiag_inverse)
    bilinear = np.einsum("nmpu,nmpq,nmqs->nmsu", g_r, alpha, g_t)
    k_arr = k0 * unit_vectors(cs.aoa, cs.zoa)
    a_t = response_phases(ctx.tx.positions_m, k0 * unit_vectors(cs.aod, cs.zod))  # (N, M, S)
    a_r = response_phases(ctx.rx.positions_m, k_arr)  # (N, M, U)
    terms = (
        np.sqrt(cs.ray_powers)[..., None, None]
        * bilinear
        * a_t[..., :, None]
        * a_r[..., None, :]
    )
    return terms, k_arr @ ctx.velocity_mps


def _los_term(ctx: LinkContext):
    """Deterministic LOS tap contribution and its Doppler rate."""
    if ctx.los_departure is None or ctx.los_arrival is None:
        raise ValueError("LOS angles required when the Rice factor is positive")
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    dep, arr = ctx.los_departure, ctx.los_arrival
    g_t = _end_fields(ctx.tx, *dep, ctx.polarization_model)[0]
    g_r = _end_fields(ctx.rx, *arr, ctx.polarization_model)[0]
    alpha = np.diag(
        [np.exp(1j * ctx.clusters.los_phase_vv), np.exp(1j * ctx.clusters.los_phase_hh)]
    )
    bilinear = np.einsum("pu,pq,qs->su", g_r, alpha, g_t)
    k_dep = k0 * unit_vectors(*dep)
    k_arr = k0 * unit_vectors(*arr)
    a_t = response_phases(ctx.tx.positions_m, k_dep)
    a_r = response_phases(ctx.rx.positions_m, k_arr)
    term = bilinear * a_t[:, None] * a_r[None, :]
    return term, float(k_arr @ ctx.velocity_mps)


def synthesize(ctx: LinkContext, times) -> np.ndarray:
    """Evaluate every cluster tap at the requested times, per TX element.

    Returns the (n_times, n_clusters, n_tx, n_rx) taps; tap n has the delay
    ctx.clusters.delays_s[n]. Tap 0 carries the Rice LOS ray when
    rice_k_linear > 0: the diffuse rays of every cluster are scaled by
    1/(K+1) in power and the LOS ray by K/(K+1). to_ports maps the element
    taps to the TX ports.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("at least one time sample is required")

    # Python-scalar power per link: the array form rounds some links' taps differently.
    scale = 10.0 ** (-ctx.slow_fading_db / 20.0)
    diffuse_scale = scale * math.sqrt(1.0 / (ctx.rice_k_linear + 1.0))
    terms, omega = _ray_terms(ctx)
    n_clusters, _, n_tx, n_rx = terms.shape
    taps = np.empty((times.size, n_clusters, n_tx, n_rx), dtype=complex)
    for ti, t in enumerate(times):
        taps[ti] = diffuse_scale * np.einsum("nmsu,nm->nsu", terms, np.exp(1j * omega * t))
    if ctx.rice_k_linear > 0:
        los_term, los_omega = _los_term(ctx)
        los_scale = scale * math.sqrt(ctx.rice_k_linear / (ctx.rice_k_linear + 1.0))
        for ti, t in enumerate(times):
            taps[ti, 0] += los_scale * los_term * np.exp(1j * los_omega * t)
    if not np.all(np.isfinite(taps.view(float))):
        raise ValueError("tap matrices must be finite")
    return taps


def to_ports(taps: np.ndarray, port_weights: np.ndarray) -> np.ndarray:
    """Element taps seen through the TX (n_ports, n_elements) port weight
    matrix. Element taps are linear in the weights, so one synthesis serves
    every weight matrix of the same array."""
    return np.einsum("pk,tnku->tnpu", port_weights, taps)

