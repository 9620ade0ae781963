"""Element and port radiation patterns, slant polarization, and port virtualization."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import unit_vectors, wrap_azimuth


@dataclass
class PatternSpec:
    """Constants of the min-clipped parabolic power pattern.

    theta_tilt_deg is the zenith angle of the vertical-cut peak: 90 for a
    broadside (horizon-pointing) beam, 90 + downtilt for an electrically
    tilted port.
    """

    g_max_dbi: float
    a_m_db: float
    sla_v_db: float
    phi_3db_deg: float
    theta_3db_deg: float
    theta_tilt_deg: float = 0.0

    def __post_init__(self):
        if self.phi_3db_deg <= 0 or self.theta_3db_deg <= 0:
            raise ValueError("3 dB beamwidths must be positive")
        if self.a_m_db <= 0 or self.sla_v_db <= 0:
            raise ValueError("front-back ratio and sidelobe floor must be positive")


def itu_port_pattern(downtilt_deg: float = 0.0) -> PatternSpec:
    """Narrow-elevation port approximation: 17 dBi, 70/15 deg cuts, 20 dB clip."""
    return PatternSpec(17.0, 20.0, 20.0, 70.0, 15.0, 90.0 + downtilt_deg)


def element_gain_db(spec: PatternSpec, azimuth, zenith):
    """Element power gain in dB at the given angles (radians, broadcastable).

    Horizontal cut clipped at the front-back ratio, vertical cut at the
    sidelobe floor, combined with the overall front-back clip. With
    itu_port_pattern (both floors 20 dB) this is the ITU port pattern.
    """
    az_deg = np.degrees(wrap_azimuth(azimuth))
    zen_deg = np.degrees(np.asarray(zenith, dtype=float))
    a_h = -np.minimum(12.0 * (az_deg / spec.phi_3db_deg) ** 2, spec.a_m_db)
    a_v = -np.minimum(
        12.0 * ((zen_deg - spec.theta_tilt_deg) / spec.theta_3db_deg) ** 2, spec.sla_v_db
    )
    return spec.g_max_dbi - np.minimum(-(a_h + a_v), spec.a_m_db)


def element_amplitude(spec: PatternSpec | None, azimuth, zenith):
    """Element field amplitude sqrt(gain) at the given angles; ones for an
    isotropic (None) pattern."""
    if spec is None:
        return np.ones_like(azimuth, dtype=float)
    return np.sqrt(10.0 ** (element_gain_db(spec, azimuth, zenith) / 10.0))


@dataclass
class ArrayGeometry:
    """Physical element layout plus the port virtualization map.

    element_positions are meters in the array frame (boresight +x, columns
    along y, rows along z).
    weights is the (n_ports, n_elements) complex matrix taking element
    signals to ports: each row has unit power, each element feeds exactly
    one port, and the elements of one port share one slant.
    """

    element_positions: np.ndarray
    slant_rad: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.element_positions = np.asarray(self.element_positions, dtype=float).reshape(-1, 3)
        self.slant_rad = np.asarray(self.slant_rad, dtype=float).reshape(-1)
        self.weights = np.asarray(self.weights, dtype=complex)
        if len(self.slant_rad) != self.n_elements:
            raise ValueError("one slant angle required per element")
        if self.weights.shape[1] != self.n_elements:
            raise ValueError("the weight matrix needs one column per element")
        if np.any(np.abs(np.sum(np.abs(self.weights) ** 2, axis=1) - 1.0) > 1e-9):
            raise ValueError("port weights must have unit total power")
        feeds = self.weights != 0
        if np.any(feeds.sum(axis=0) != 1):
            raise ValueError("each element must feed exactly one port")
        if any(np.unique(self.slant_rad[row]).size > 1 for row in feeds):
            raise ValueError("the elements of a port must share one slant")

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]

    @property
    def n_ports(self) -> int:
        return self.weights.shape[0]


def uniform_planar_array(
    m_rows: int,
    n_cols: int,
    d_v: float,
    d_h: float,
    wavelength: float,
    k_per_port: int | None = None,
    slant_deg: float = 0.0,
    cross_polarized: bool = False,
    column_weights=None,
) -> ArrayGeometry:
    """Uniform M x N array with one port per column (K=M) or per element (K=1).

    d_v/d_h are in wavelengths. With cross_polarized=True each position holds
    a +/-45 deg pair and every column maps to two ports, one per slant.
    column_weights are the K weights of every port (default uniform, unit
    power), e.g. downtilt_weights for a column port.
    """
    if m_rows < 1 or n_cols < 1:
        raise ValueError("array must have at least one row and one column")
    k = m_rows if k_per_port is None else k_per_port
    if k not in (1, m_rows):
        raise ValueError("elements per port must be 1 or the full column")
    if column_weights is None:
        column_weights = np.full(k, 1.0 / math.sqrt(k), dtype=complex)
    w = np.asarray(column_weights, dtype=complex)
    if w.shape != (k,):
        raise ValueError("weight vector length does not match port size")
    slants = np.radians([-45.0, 45.0] if cross_polarized else [slant_deg])
    n_pol = len(slants)
    # Element (column c, row r, slant p) is number (c * M + r) * n_pol + p. It
    # feeds the port of its column and slant (K = M) or its own port (K = 1).
    grid = np.meshgrid(range(n_cols), range(m_rows), range(n_pol), indexing="ij")
    c, r, p = (g.ravel() for g in grid)
    positions = np.stack([np.zeros(c.size), c * d_h * wavelength, r * d_v * wavelength], axis=-1)
    weights = np.zeros((n_cols * n_pol * (m_rows // k), c.size), dtype=complex)
    weights[(c * n_pol + p) * (m_rows // k) + r // k, np.arange(c.size)] = w[r % k]
    return ArrayGeometry(positions, slants[p], weights)


def response_phases(positions: np.ndarray, k_vectors: np.ndarray) -> np.ndarray:
    """exp(j k . x) for a batch of wave vectors; shape (..., n_elements)."""
    return np.exp(1j * (np.asarray(k_vectors) @ np.asarray(positions).T))


def downtilt_weights(m: int, d_v: float, theta_tilt: float) -> np.ndarray:
    """Unit-power progressive phase weights steering a column to zenith theta_tilt.

    d_v is the vertical spacing in wavelengths; theta_tilt in radians.
    """
    if m < 1:
        raise ValueError("element count must be >= 1")
    if d_v <= 0:
        raise ValueError("vertical spacing must be positive")
    idx = np.arange(m)
    return np.exp(-2j * math.pi * d_v * idx * math.cos(theta_tilt)) / math.sqrt(m)


def element_terms(
    spec: PatternSpec, geometry: ArrayGeometry, port: int, wavelength: float,
    azimuth, zenith,
):
    """The weight-independent half of a port's fields: element amplitudes
    toward each direction (azimuth in the array frame) and the response
    phases of the port's elements, shapes (...) and (..., n_idx).

    Ports that differ only in weights (one array at several downtilts) share
    these terms.
    """
    if not 0 <= port < geometry.n_ports:
        raise ValueError(f"unknown port index {port}")
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


def fields_gain_db(g_v, g_h):
    """Power gain in dB of (vertical, horizontal) field amplitudes."""
    power = np.abs(g_v) ** 2 + np.abs(g_h) ** 2
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)

