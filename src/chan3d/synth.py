"""Per-tap MIMO channel assembly from geometry, antennas, and small-scale draws."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .antenna import PatternSpec, element_amplitude, response_phases
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
        if self.rice_k_linear > 0 and (self.los_departure is None or self.los_arrival is None):
            raise ValueError("LOS angles required when the Rice factor is positive")
        if self.polarization_model not in ("slant", "rotated"):
            raise ValueError("polarization model must be 'slant' or 'rotated'")


def end_fields(ends, azimuth, zenith, model: str) -> np.ndarray:
    """Per-slant (V, H) field amplitudes of each link's end toward its
    directions, shape (link, ..., 2, n_slants) for (link, ...) angles. ends
    holds one LinkEnd per link, or one for all, differing only in bearing.
    The slant model splits the pattern amplitude angle-independently; the
    rotated model transforms a vertically polarized element field through
    each link's element orientation, link by link.
    """
    end = ends[0]
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith, dtype=float))
    bearing = np.broadcast_to([e.bearing_rad for e in ends], az.shape[:1])
    out = np.empty(az.shape + (2, end.slants.size), dtype=complex)
    if model == "slant":
        local_az = wrap_azimuth(az - bearing.reshape(az.shape[:1] + (1,) * (az.ndim - 1)))
        amp = element_amplitude(end.pattern, local_az, zen)
        out[..., 0, :] = amp[..., None] * np.cos(end.slants)
        out[..., 1, :] = amp[..., None] * np.sin(end.slants)
        return out

    dirs = unit_vectors(az, zen)
    et_g, ep_g = spherical_basis(az, zen)
    for link, b in enumerate(bearing.tolist()):
        row = slice(link, link + 1)  # (1, ...): each link's products round as one link's do
        for i, slant in enumerate(end.slants):
            rot = rotation_z(b) @ rotation_x(float(slant))
            local = dirs[row] @ rot  # row-vector form of R^T @ v
            local_az = np.arctan2(local[..., 1], local[..., 0])
            local_zen = np.arccos(np.clip(local[..., 2], -1.0, 1.0))
            amp = element_amplitude(end.pattern, local_az, local_zen)
            et_local, _ = spherical_basis(local_az, local_zen)
            field_global = (amp[..., None] * et_local) @ rot.T
            out[row, ..., 0, i] = np.sum(field_global * et_g[row], axis=-1)
            out[row, ..., 1, i] = np.sum(field_global * ep_g[row], axis=-1)
    return out


@dataclass
class LinkHalf:
    """The ray terms of a batch of links that their TX ends do not enter,
    behind a leading link axis, so one half serves every TX setup: RX fields
    per RX slant, polarization matrices, departure wave vectors, RX phases,
    Doppler rates; los holds the LOS ray's (NaN where K = 0). link(i): a view."""

    g_r: np.ndarray
    alpha: np.ndarray
    k_dep: np.ndarray
    a_r: np.ndarray
    omega: np.ndarray | float
    los: LinkHalf | None = None

    def link(self, i: int) -> LinkHalf:
        los = None if self.los is None else self.los.link(i)
        return LinkHalf(self.g_r[i], self.alpha[i], self.k_dep[i], self.a_r[i], self.omega[i], los)


def link_half(links, clusters: ClusterSet) -> LinkHalf:
    """The TX-independent half of the ray terms of a UE's links, in one array
    pass: links are their LinkContexts (one RX end, carrier, velocity,
    polarization model and XPR convention) and clusters their batch."""
    ctx, cs = links[0], clusters
    model, rx = ctx.polarization_model, ctx.rx
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    k_arr = k0 * unit_vectors(cs.aoa, cs.zoa)
    los = np.array([  # (departure, arrival); NaN where K = 0, as no LOS term is read there
        (*ln.los_departure, *ln.los_arrival) if ln.rice_k_linear > 0 else (math.nan,) * 4
        for ln in links
    ])
    # A (link, 1, 3) LOS wave vector: each link's products round as one link's do.
    k_los = k0 * unit_vectors(los[:, 2:3], los[:, 3:])
    alpha_los = np.zeros((len(links), 2, 2), dtype=complex)
    alpha_los[:, 0, 0] = np.exp(1j * cs.los_phase_vv)
    alpha_los[:, 1, 1] = np.exp(1j * cs.los_phase_hh)
    return LinkHalf(
        end_fields([rx], cs.aoa, cs.zoa, model),  # (L, N, M, 2, RX slants)
        polarization_matrix(cs.xpr, cs.phases, ctx.xpr_offdiag_inverse),
        k0 * unit_vectors(cs.aod, cs.zod),
        response_phases(rx.positions_m, k_arr),  # (L, N, M, U)
        k_arr @ ctx.velocity_mps,
        LinkHalf(
            end_fields([rx], los[:, 2], los[:, 3], model),
            alpha_los,
            k0 * unit_vectors(los[:, 0], los[:, 1]),
            response_phases(rx.positions_m, k_los)[:, 0],
            (k_los @ ctx.velocity_mps)[:, 0],
        ),
    )


def _ray_terms(ctx: LinkContext, half: LinkHalf, g_t: np.ndarray, amplitude=None) -> np.ndarray:
    """Static tap contributions of the rays of a link's half, (..., n_tx,
    n_rx) holding amplitude * (gR^T a gT) * aT * aR: its diffuse rays over
    (cluster, ray) with their sqrt(P), or its LOS ray. The bilinear form runs
    per (TX slant, RX slant) and is then gathered to the elements."""
    bilinear = np.einsum("...pu,...pq,...qs->...su", half.g_r, half.alpha, g_t)
    if amplitude is not None:
        bilinear = amplitude[..., None, None] * bilinear
    a_t = response_phases(ctx.tx.positions_m, half.k_dep)  # (..., S)
    gathered = bilinear[..., ctx.tx.slant_index[:, None], ctx.rx.slant_index]
    return gathered * a_t[..., :, None] * half.a_r[..., None, :]


def synthesize(ctx: LinkContext, times, half: LinkHalf, g_t: np.ndarray) -> np.ndarray:
    """Evaluate every cluster tap at the requested times, per TX element.

    Returns the (n_times, n_clusters, n_tx, n_rx) taps; tap n has the delay
    ctx.clusters.delays_s[n]. Tap 0 carries the Rice LOS ray when
    rice_k_linear > 0: the diffuse rays of every cluster are scaled by
    1/(K+1) in power and the LOS ray by K/(K+1). half is the link's view of
    its batch's link_half, which links that differ only in their TX end
    share, and g_t its TX fields from end_fields. to_ports maps the element
    taps to the TX ports.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        raise ValueError("at least one time sample is required")

    # Python-scalar power per link: the array form rounds some links' taps differently.
    scale = 10.0 ** (-ctx.slow_fading_db / 20.0)
    diffuse_scale = scale * math.sqrt(1.0 / (ctx.rice_k_linear + 1.0))
    terms = _ray_terms(ctx, half, g_t, np.sqrt(ctx.clusters.ray_powers))
    taps = np.empty((times.size,) + terms.shape[:1] + terms.shape[2:], dtype=complex)
    for ti, t in enumerate(times):
        taps[ti] = diffuse_scale * np.einsum("nmsu,nm->nsu", terms, np.exp(1j * half.omega * t))
    if ctx.rice_k_linear > 0:
        g_los = end_fields([ctx.tx], *ctx.los_departure, ctx.polarization_model)[0]
        los_term = _ray_terms(ctx, half.los, g_los)
        los_scale = scale * math.sqrt(ctx.rice_k_linear / (ctx.rice_k_linear + 1.0))
        for ti, t in enumerate(times):
            taps[ti, 0] += los_scale * los_term * np.exp(1j * half.los.omega * t)
    if not np.all(np.isfinite(taps.view(float))):
        raise ValueError("tap matrices must be finite")
    return taps


def to_ports(taps: np.ndarray, port_weights: np.ndarray) -> np.ndarray:
    """Element taps seen through the TX (n_ports, n_elements) port weight
    matrix. Element taps are linear in the weights, so one synthesis serves
    every weight matrix of the same array."""
    return np.einsum("pk,tnku->tnpu", port_weights, taps)

