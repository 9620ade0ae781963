"""Reference antenna forms for the tests.

``port_fields`` and ``composite_port_gain_db`` evaluate one virtualized port
in a single call: the element terms and the port weights together, as the
campaign splits them into ``antenna.element_terms`` and
``antenna.weight_fields``. ``element_pattern_3gpp`` is the single-element
pattern at its documented constants. ``isotropic_end`` is a link end of
isotropic, vertically polarized elements at the origin. ``element_fields``
evaluates a link end's fields element by element, where
``synth_oracle.end_fields_one_link`` evaluates them once per slant.
"""
import numpy as np

from chan3d.antenna import ArrayGeometry, PatternSpec, element_terms, fields_gain_db, weight_fields
from chan3d.geom import wrap_azimuth
from chan3d.synth import LinkEnd
from synth_oracle import end_fields_one_link


def element_pattern_3gpp(theta_peak_deg: float = 90.0) -> PatternSpec:
    """Single-element pattern: 8 dBi peak, 65 deg cuts, 30 dB floors."""
    return PatternSpec(8.0, 30.0, 30.0, 65.0, 65.0, theta_peak_deg)


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
