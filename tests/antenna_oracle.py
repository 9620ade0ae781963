"""Reference antenna forms for the tests.

``response_phases`` is the per-element phase exp(j k . x) toward a batch of
wave vectors, the form that ``antenna.port_factors`` replaces with one exp
per lattice step. ``element_terms`` and ``weight_fields`` are the per-cell,
per-element form of a port's fields: element amplitudes and the response
phases of the port's elements from full wave vectors toward each (UE, cell)
direction, then the weighted sums. ``tx_gains_db_per_element`` is the
phase-1 TX gain of a setup's end in that form, one point at a time;
``tx_gains_db_per_cell`` is it in port form, port 0's factors of every point
from full wave vectors per (UE, cell), which the campaign computes per (UE,
site) (``campaign._tx_gains_db``). ``port_fields`` and
``composite_port_gain_db`` evaluate one virtualized port in a single call.
``element_pattern_3gpp`` is the single-element pattern at its documented
constants. ``isotropic_end`` is a link end of isotropic, vertically
polarized elements at the origin, and ``lattice_end`` the link end of an
array's lattice turned to a bearing, or to one bearing per link.
``per_port_fields`` evaluates a link end's fields port by port, where
``synth_oracle.end_fields_one_link`` evaluates them once per slant.
"""
import math
from dataclasses import replace

import numpy as np

from chan3d.antenna import (
    LinkEnd, PatternSpec, element_amplitude, element_gain_db, fields_gain_db, port_factors,
)
from chan3d.geom import rotation_z, unit_vectors, wrap_azimuth
from synth_oracle import end_fields_one_link


def element_pattern_3gpp(theta_peak_deg: float = 90.0) -> PatternSpec:
    """Single-element pattern: 8 dBi peak, 65 deg cuts, 30 dB floors."""
    return PatternSpec(8.0, 30.0, 30.0, 65.0, 65.0, theta_peak_deg)


def response_phases(positions: np.ndarray, k_vectors: np.ndarray) -> np.ndarray:
    """exp(j k . x) for a batch of wave vectors; shape (..., n_elements)."""
    return np.exp(1j * (np.asarray(k_vectors) @ np.asarray(positions).T))


def element_positions(geometry: LinkEnd) -> np.ndarray:
    """Each element's position lattice @ steps, (n_elements, 3) meters."""
    return geometry.lattice @ geometry.steps


def element_terms(
    spec: PatternSpec, geometry: LinkEnd, port: int, wavelength: float,
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
    return amp, response_phases(element_positions(geometry)[idx], k_vecs)


def weight_fields(amp, phases, geometry: LinkEnd, port: int):
    """The weights half of a port's fields: (vertical, horizontal) fields of
    the port from its element_terms, its weights and its elements' slants."""
    idx = np.flatnonzero(geometry.weights[port])
    w = geometry.weights[port, idx]
    slant = geometry.slant_rad[idx]
    return amp * (phases @ (w * np.cos(slant))), amp * (phases @ (w * np.sin(slant)))


def tx_gains_db_per_element(end: LinkEnd, wavelength: float, local_az, zen) -> list:
    """Phase-1 TX gain of port 0 over (UE, cell) angle arrays, one array per
    sweep point of a setup's end, per element: the element terms per cell,
    then each point's port weights."""
    points = [replace(end, weights=weights) for weights in end.weights]
    amp, phases = element_terms(end.pattern, points[0], 0, wavelength, local_az, zen)
    return [fields_gain_db(*weight_fields(amp, phases, point, 0)) for point in points]


def tx_gains_db_per_cell(end: LinkEnd, wavelength: float, local_az, zen, itu=False) -> list:
    """Phase-1 TX gain of port 0 over (UE, cell) angle arrays, one array per
    sweep point of a setup's end (itu: an itu_port end, whose gain is its
    pattern's own), in port form per cell: port 0's factors of every point
    from full wave vectors toward each (UE, cell) direction, times the
    element amplitude, the slant splitting the field in power alone."""
    if itu:
        return [np.asarray(element_gain_db(end.pattern, local_az, zen))]
    k_vecs = (2.0 * math.pi / wavelength) * unit_vectors(local_az, zen)
    port0 = np.stack([weights[0] for weights in end.weights])
    factors = port_factors(end.lattice, port0, k_vecs, end.steps.T)
    amp = element_amplitude(end.pattern, local_az, zen)
    return [fields_gain_db(amp * factors[..., k], 0.0) for k in range(len(port0))]


def port_fields(
    spec: PatternSpec, geometry: LinkEnd, port: int, wavelength: float,
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
    spec: PatternSpec, geometry: LinkEnd, port: int, wavelength: float,
    azimuth, zenith, bearing_rad: float = 0.0,
):
    """Power gain in dB of the virtualized port (element pattern + weights)."""
    g_v, g_h = port_fields(spec, geometry, port, wavelength, azimuth, zenith, bearing_rad)
    return fields_gain_db(g_v, g_h)


def isotropic_end(n_elements: int = 1) -> LinkEnd:
    return LinkEnd(np.zeros(n_elements))


def lattice_end(geometry: LinkEnd, pattern=None, bearing_rad=0.0, ports: bool = True) -> LinkEnd:
    """The link end of geometry's lattice turned to bearing_rad, or to each
    of an array of bearings, one per link, as a phase-2 campaign turns a
    setup's end to its cells: at its ports, or (ports=False) each element
    its own port."""
    turned = [geometry.steps @ rotation_z(b).T for b in np.ravel(bearing_rad).tolist()]
    steps = np.stack(turned) if np.ndim(bearing_rad) else turned[0]
    weights = geometry.weights if ports else None
    return LinkEnd(geometry.slant_rad, pattern, bearing_rad, geometry.lattice, steps, weights)


def per_port_fields(end: LinkEnd, azimuth, zenith, model: str) -> np.ndarray:
    """(V, H) fields of every port of end, shape (..., 2, n_ports): one
    single-slant end per port, so no two ports share a field."""
    return np.concatenate([
        end_fields_one_link(
            LinkEnd(end.slants[s:s + 1], end.pattern, end.bearing_rad), azimuth, zenith, model,
        )
        for s in end.slant_index
    ], axis=-1)
