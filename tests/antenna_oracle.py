"""Reference antenna forms for the tests.

``element_terms`` and ``weight_fields`` are the per-cell form of a port's
fields: element amplitudes and the response phases of the port's elements
from full wave vectors toward each (UE, cell) direction, then the weighted
sums. ``tx_gains_db_per_cell`` is the phase-1 TX gain in that form, which
the campaign computes per (UE, site) (``campaign._tx_gains_db``).
``port_fields`` and ``composite_port_gain_db`` evaluate one virtualized
port in a single call. ``element_pattern_3gpp`` is the single-element
pattern at its documented constants. ``isotropic_end`` is a link end of
isotropic, vertically polarized elements at the origin. ``element_fields``
evaluates a link end's fields element by element, where
``synth_oracle.end_fields_one_link`` evaluates them once per slant.
"""
import math

import numpy as np

from chan3d.antenna import (
    ArrayGeometry, PatternSpec, element_amplitude, element_gain_db, fields_gain_db,
    response_phases,
)
from chan3d.geom import unit_vectors, wrap_azimuth
from chan3d.synth import LinkEnd
from synth_oracle import end_fields_one_link


def element_pattern_3gpp(theta_peak_deg: float = 90.0) -> PatternSpec:
    """Single-element pattern: 8 dBi peak, 65 deg cuts, 30 dB floors."""
    return PatternSpec(8.0, 30.0, 30.0, 65.0, 65.0, theta_peak_deg)


def element_terms(
    spec: PatternSpec, geometry: ArrayGeometry, port: int, wavelength: float,
    azimuth, zenith,
):
    """The weight-independent half of a port's fields: element amplitudes
    toward each direction (azimuth in the array frame) and the response
    phases of the port's elements from full wave vectors, shapes (...) and
    (..., n_idx)."""
    idx = np.flatnonzero(geometry.weights[port])
    local_az = wrap_azimuth(azimuth)
    zen = np.asarray(zenith, dtype=float)
    amp = element_amplitude(spec, local_az, zen)
    k_vecs = (2.0 * math.pi / wavelength) * unit_vectors(local_az, zen)
    return amp, response_phases(geometry.element_positions[idx], k_vecs)


def weight_fields(amp, phases, geometry: ArrayGeometry, port: int):
    """The weights half of a port's fields: (vertical, horizontal) fields of
    the port from its element_terms, its weights and its elements' slants."""
    idx = np.flatnonzero(geometry.weights[port])
    w = geometry.weights[port, idx]
    slant = geometry.slant_rad[idx]
    return amp * (phases @ (w * np.cos(slant))), amp * (phases @ (w * np.sin(slant)))


def tx_gains_db_per_cell(pattern, arrays, wavelength: float, local_az, zen) -> list:
    """Phase-1 TX gain of port 0 over (UE, cell) angle arrays, one array per
    sweep point (arrays None: an itu_port pattern, whose gain is the
    pattern's own): the element terms per cell, then each point's port
    weights."""
    if arrays is None:
        return [np.asarray(element_gain_db(pattern, local_az, zen))]
    amp, phases = element_terms(pattern, arrays[0], 0, wavelength, local_az, zen)
    return [fields_gain_db(*weight_fields(amp, phases, array, 0)) for array in arrays]


def port_fields(
    spec: PatternSpec, geometry: ArrayGeometry, port: int, wavelength: float,
    azimuth, zenith, bearing_rad: float = 0.0,
):
    """Composite (vertical, horizontal) field amplitudes of one virtualized port.

    Evaluates the element pattern in the port's local frame (azimuth measured
    from `bearing_rad`), applies per-element slant fields and steering phases
    at the given wavelength, and sums with the port weights. azimuth/zenith
    broadcast together; outputs are complex with a matching shape.
    """
    local_az = wrap_azimuth(np.asarray(azimuth, dtype=float) - bearing_rad)
    amp, phases = element_terms(spec, geometry, port, wavelength, local_az, zenith)
    return weight_fields(amp, phases, geometry, port)


def composite_port_gain_db(
    spec: PatternSpec, geometry: ArrayGeometry, port: int, wavelength: float,
    azimuth, zenith, bearing_rad: float = 0.0,
):
    """Power gain in dB of the virtualized port (element pattern + weights)."""
    g_v, g_h = port_fields(spec, geometry, port, wavelength, azimuth, zenith, bearing_rad)
    return fields_gain_db(g_v, g_h)


def isotropic_end(n_elements: int = 1) -> LinkEnd:
    return LinkEnd(np.zeros((n_elements, 3)), np.zeros(n_elements))


def element_fields(end: LinkEnd, azimuth, zenith, model: str) -> np.ndarray:
    """(V, H) fields of every element of end, shape (..., 2, n_elements):
    one single-element end per element, so no two elements share a field."""
    return np.concatenate([
        end_fields_one_link(
            LinkEnd(end.positions_m[e], end.slant_rad[e:e + 1], end.pattern, end.bearing_rad),
            azimuth, zenith, model,
        )
        for e in range(end.n_elements)
    ], axis=-1)
