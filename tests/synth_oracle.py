"""Per-link reference forms of the phase-2 ray terms.

``end_fields_one_link`` evaluates one link end's fields and
``link_half_one_link`` one link's TX-independent ray terms, link by link, as
``synth`` did before ``synth.end_fields`` and ``synth.link_half`` took all of
a UE's links in one array pass. ``tests/test_synth.py`` checks with ``np.array_equal`` that
the batch kernels give the same bytes for every link of a batch.
``synthesize_link`` synthesizes one link's taps through the batch kernels,
with the link as a batch of one.
"""
import math

import numpy as np

from chan3d.antenna import element_gain_db, response_phases
from chan3d.geom import (
    SPEED_OF_LIGHT,
    rotation_x,
    rotation_z,
    spherical_basis,
    unit_vectors,
    wrap_azimuth,
)
from chan3d.ssp import polarization_matrix
from chan3d.synth import LinkContext, LinkEnd, LinkHalf, end_fields, link_half, synthesize


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

    dirs = unit_vectors(az, zen)
    et_g, ep_g = spherical_basis(az, zen)
    for i, slant in enumerate(end.slants):
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
        out[..., 0, i] = np.sum(field_global * et_g, axis=-1)
        out[..., 1, i] = np.sum(field_global * ep_g, axis=-1)
    return out


def link_half_one_link(ctx: LinkContext) -> LinkHalf:
    """One link's TX-independent ray terms; its los holds the Rice LOS ray's
    half when the link has K > 0, else None."""
    cs, model, rx = ctx.clusters, ctx.polarization_model, ctx.rx
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    k_arr = k0 * unit_vectors(cs.aoa, cs.zoa)
    half = LinkHalf(
        end_fields_one_link(rx, cs.aoa, cs.zoa, model),
        polarization_matrix(cs.xpr, cs.phases, ctx.xpr_offdiag_inverse),
        k0 * unit_vectors(cs.aod, cs.zod),
        response_phases(rx.positions_m, k_arr),
        k_arr @ ctx.velocity_mps,
    )
    if ctx.rice_k_linear > 0:
        dep, arr = ctx.los_departure, ctx.los_arrival
        k_los = k0 * unit_vectors(*arr)
        half.los = LinkHalf(
            end_fields_one_link(rx, *arr, model)[0],
            np.diag([np.exp(1j * cs.los_phase_vv), np.exp(1j * cs.los_phase_hh)]),
            k0 * unit_vectors(*dep),
            response_phases(rx.positions_m, k_los),
            float(k_los @ ctx.velocity_mps),
        )
    return half



def synthesize_link(ctx: LinkContext, times) -> np.ndarray:
    """synth.synthesize for one link: its half from link_half and its TX
    fields from end_fields, each over the link as a batch of one."""
    batch = ctx.clusters.link(None)
    half = link_half([ctx], batch).link(0)
    g_t = end_fields([ctx.tx], batch.aod, batch.zod, ctx.polarization_model)[0]
    return synthesize(ctx, times, half, g_t)
