"""Element and port radiation patterns, slant polarization, and port virtualization."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import wrap_azimuth


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
        # np.ptp, not np.unique: np.unique imports numpy.ma (1 MB) on its first call.
        if any(np.ptp(self.slant_rad[row]) > 0 for row in feeds):
            raise ValueError("the elements of a port must share one slant")

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]


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


def column_heights(geometry: ArrayGeometry, port: int) -> np.ndarray:
    """Heights (n_idx, 1) of the port's elements, which must sit on the column
    axis x = y = 0: there exp(j k . x) = exp(j k_z z), whatever the azimuth."""
    xyz = geometry.element_positions[np.flatnonzero(geometry.weights[port])]
    if np.any(xyz[:, :2] != 0.0):
        raise ValueError(f"port {port} has elements off the column axis x = y = 0")
    return xyz[:, 2:]


def column_sums(heights: np.ndarray, wavelength: float, zenith, geometries, port: int) -> list:
    """Per geometry, the port's (vertical, horizontal) fields over its element
    amplitude: phases @ (w cos(slant)), phases @ (w sin(slant)), where phases
    are exp(j k_z z) of the elements at column_heights toward each zenith."""
    k_z = (2.0 * math.pi / wavelength) * np.cos(np.asarray(zenith, dtype=float))
    phases = response_phases(heights, k_z[..., None])
    sums = []
    for geometry in geometries:
        idx = np.flatnonzero(geometry.weights[port])
        w, slant = geometry.weights[port, idx], geometry.slant_rad[idx]
        sums.append((phases @ (w * np.cos(slant)), phases @ (w * np.sin(slant))))
    return sums


def fields_gain_db(g_v, g_h):
    """Power gain in dB of (vertical, horizontal) field amplitudes."""
    power = np.abs(g_v) ** 2 + np.abs(g_h) ** 2
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)

