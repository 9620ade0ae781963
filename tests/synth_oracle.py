"""A one-link description of the phase-2 ray terms, and their per-link
reference forms.

``LinkContext`` describes one link as tests write it; ``ue_record`` turns
links of one UE into the ``synth.UeLinks`` record the campaign builds, and
``synthesize_link`` synthesizes one link's taps through the batch kernels,
with the link as a batch and a chunk of one. ``end_fields_one_link``
evaluates one link end's fields, ``link_half_one_link`` one link's
TX-independent ray terms and ``synthesize_one_link`` one link's port taps,
link by link, as ``synth`` did before ``synth.end_fields``,
``synth.ue_links`` and ``synth.synthesize`` took a UE's links, or a chunk of
them, in one array pass. Both take each end's port factors from
``antenna.port_factors``, per link. ``to_ports`` is the element-to-port map
that synthesis applied to element taps before it synthesized ports.
``tests/test_synth.py`` checks with ``np.array_equal`` that the batch
kernels give the same bytes for every link of a batch.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from chan3d.antenna import element_gain_db, port_factors
from chan3d.geom import (
    SPEED_OF_LIGHT,
    rotation_x,
    rotation_z,
    spherical_basis,
    unit_vectors,
    wrap_azimuth,
)
from chan3d.ssp import ClusterSet, polarization_matrix
from chan3d.synth import LinkEnd, RayTerms, UeLinks, end_fields, synthesize, ue_links


@dataclass
class LinkContext:
    """Everything needed to evaluate the cluster channel of one link. The LOS
    departure and arrival directions are (azimuth, zenith) pairs in radians,
    or None; synth.ue_links checks the description."""

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


def ue_record(links: list, batch: ClusterSet) -> UeLinks:
    """synth.ue_links over one UE's links, described one by one over their
    cluster batch; they share the first link's RX end, carrier, velocity,
    XPR convention and polarization model. A missing LOS pair reads NaN."""
    ctx, nan = links[0], (math.nan, math.nan)
    return ue_links(
        ctx.rx, batch,
        [(*(ln.los_departure or nan), *(ln.los_arrival or nan)) for ln in links],
        [ln.rice_k_linear for ln in links], [ln.slow_fading_db for ln in links],
        ctx.carrier_hz, ctx.velocity_mps, ctx.xpr_offdiag_inverse, ctx.polarization_model,
    )


def end_fields_one_link(end: LinkEnd, azimuth, zenith, model: str) -> np.ndarray:
    """Per-slant (V, H) field amplitudes of one end toward each direction,
    shape (..., 2, n_slants) over end.slants."""
    az = np.atleast_1d(np.asarray(azimuth, dtype=float))
    zen = np.atleast_1d(np.asarray(zenith, dtype=float))
    out = np.empty(az.shape + (2, end.slants.size), dtype=complex)
    if model == "slant":
        if end.pattern is None:
            amp = np.ones_like(az)
        else:
            local_az = wrap_azimuth(az - end.bearing_rad)
            amp = np.sqrt(10.0 ** (element_gain_db(end.pattern, local_az, zen) / 10.0))
        out[..., 0, :] = amp[..., None] * np.cos(end.slants)
        out[..., 1, :] = amp[..., None] * np.sin(end.slants)
        return out

    # The one link as a (1, direction, 3) block under a (1, 3, 3) rotation stack.
    dirs = unit_vectors(az, zen).reshape(1, -1, 3)
    et_g, ep_g = (e.reshape(1, -1, 3) for e in spherical_basis(az, zen))
    for i, slant in enumerate(end.slants):
        rot = rotation_z(np.array([end.bearing_rad])) @ rotation_x(float(slant))
        local = dirs @ rot  # row-vector form of R^T @ v
        local_az = np.arctan2(local[..., 1], local[..., 0])
        local_zen = np.arccos(np.clip(local[..., 2], -1.0, 1.0))
        if end.pattern is None:
            amp = np.ones_like(local_az)
        else:
            amp = np.sqrt(10.0 ** (element_gain_db(end.pattern, local_az, local_zen) / 10.0))
        et_local, _ = spherical_basis(local_az, local_zen)
        field_global = (amp[..., None] * et_local) @ rot.transpose(0, 2, 1)
        out[..., 0, i] = np.sum(field_global * et_g, axis=-1).reshape(az.shape)
        out[..., 1, i] = np.sum(field_global * ep_g, axis=-1).reshape(az.shape)
    return out


def link_half_one_link(ctx: LinkContext) -> tuple:
    """One link's TX-independent ray terms: those of its diffuse rays, and
    those of its Rice LOS ray when the link has K > 0, else None."""
    cs, model, rx = ctx.clusters, ctx.polarization_model, ctx.rx
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    k_arr = k0 * unit_vectors(cs.aoa, cs.zoa)
    a_r = port_factors(rx.lattice, rx.weights, k_arr, rx.steps.T)
    rays = RayTerms(
        end_fields_one_link(rx, cs.aoa, cs.zoa, model)[..., rx.slant_index] * a_r[..., None, :],
        polarization_matrix(cs.xpr, cs.phases, ctx.xpr_offdiag_inverse),
        k0 * unit_vectors(cs.aod, cs.zod),
        k_arr @ ctx.velocity_mps,
    )
    if ctx.rice_k_linear == 0:
        return rays, None
    dep, arr = ctx.los_departure, ctx.los_arrival
    k_los = k0 * unit_vectors(*arr)
    a_los = port_factors(rx.lattice, rx.weights, k_los, rx.steps.T)
    return rays, RayTerms(
        end_fields_one_link(rx, *arr, model)[0][..., rx.slant_index] * a_los,
        np.diag([np.exp(1j * cs.los_phase_vv), np.exp(1j * cs.los_phase_hh)]),
        k0 * unit_vectors(*dep),
        float(k_los @ ctx.velocity_mps),
    )


def synthesize_link(ctx: LinkContext, times) -> np.ndarray:
    """synth.synthesize for one link: its record from ue_links and its TX
    fields from end_fields, each over the link as a batch of one, and its
    taps from the link as a chunk of one."""
    batch = ctx.clusters.link(None)
    ue = ue_record([ctx], batch)
    g_t = end_fields([ctx.tx], batch.aod, batch.zod, ctx.polarization_model)
    g_los = end_fields([ctx.tx], ue.los[:, 0], ue.los[:, 1], ctx.polarization_model)
    return synthesize(ue.chunk(slice(0, 1), [ctx.tx]), times, g_t, g_los)[0]


def _ray_terms_one_link(i, tx, rays, g_t, amplitude=None) -> np.ndarray:
    """Static tap contributions of link i's rays toward tx, (..., n_ports,
    n_rx) holding amplitude * (gR^T a gT) * AF: its diffuse rays over
    (cluster, ray) with their sqrt(P), or its LOS ray; the RX factors are
    in gR, each TX port's factor AF comes from its departure on tx's
    steps."""
    bilinear = np.einsum("...pu,...pq,...qs->...su", rays.g_r[i], rays.alpha[i], g_t)
    if amplitude is not None:
        bilinear = amplitude[..., None, None] * bilinear
    factors = port_factors(tx.lattice, tx.weights, rays.k_dep[i], tx.steps.T)  # (..., P)
    return bilinear[..., tx.slant_index, :] * factors[..., None]


def synthesize_one_link(ue: UeLinks, i: int, tx: LinkEnd, times, g_t, g_los) -> np.ndarray:
    """Link i of a UeLinks record toward its TX end tx, synthesized alone:
    its (n_times, n_clusters, n_ports, n_rx) taps, from its TX fields toward
    its rays and its LOS departure, as synth.synthesize did one link per
    call before it took a chunk of a UE's links in one array pass."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rice_k = ue.rice_k[i]
    scale = np.power(10.0, -ue.slow_fading_db[i] / 20.0)  # numpy's power, on one value
    diffuse_scale = scale * math.sqrt(1.0 / (rice_k + 1.0))
    amplitude = np.sqrt(ue.clusters.ray_powers[i])
    terms = _ray_terms_one_link(i, tx, ue.rays, g_t, amplitude)
    taps = np.empty((times.size,) + terms.shape[:1] + terms.shape[2:], dtype=complex)
    for ti, t in enumerate(times):
        doppler = np.exp(1j * ue.rays.omega[i] * t)
        taps[ti] = diffuse_scale * np.einsum("nmsu,nm->nsu", terms, doppler)
    if rice_k > 0:
        los_term = _ray_terms_one_link(i, tx, ue.los_rays, g_los)
        los_scale = scale * math.sqrt(rice_k / (rice_k + 1.0))
        for ti, t in enumerate(times):
            taps[ti, 0] += los_scale * los_term * np.exp(1j * ue.los_rays.omega[i] * t)
    return taps


def to_ports(taps: np.ndarray, port_weights: np.ndarray) -> np.ndarray:
    """(..., time, tap, TX element, RX) taps seen through the TX (n_ports,
    n_elements) port weight matrix: element taps are linear in the weights."""
    return np.einsum("pk,...ku->...pu", port_weights, taps)
