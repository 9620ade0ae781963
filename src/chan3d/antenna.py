"""Element and port patterns, slant polarization, link ends, and their port factors."""
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
class LinkEnd:
    """One side of a link: its elements' slants, the element pattern (None =
    isotropic 0 dBi), its bearing (one, or one per link), its lattice and its
    port weights. Element e sits at lattice[e] @ steps: lattice holds its
    integer (column, row), steps the (horizontal, vertical) step vectors in
    meters, (2, 3) in the array frame (boresight +x, columns along y, rows
    along z) or (link, 2, 3) turned to each link's bearing. weights takes
    element signals to ports, (port, element), or (point, port, element)
    for a TX setup's stacked sweep points. Per point, each row has unit
    power, each element feeds exactly one port, and the elements of one
    port share one slant and one column. The default puts every element at
    the origin as its own port. slants holds the distinct port slants of
    every point's ports, in order, and slant_index each port's index.
    """

    slant_rad: np.ndarray
    pattern: PatternSpec | None = None
    bearing_rad: float | np.ndarray = 0.0
    lattice: np.ndarray | None = None
    steps: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.slant_rad = np.asarray(self.slant_rad, dtype=float).reshape(-1)
        n = self.slant_rad.size
        self.lattice = np.zeros((n, 2), int) if self.lattice is None else np.asarray(self.lattice)
        self.steps = np.zeros((2, 3)) if self.steps is None else np.asarray(self.steps, float)
        self.weights = np.eye(n) if self.weights is None else np.asarray(self.weights)
        shapes = (self.lattice.shape, self.steps.shape[-2:], self.weights.shape[-1:])
        if shapes != ((n, 2), (2, 3), (n,)):
            raise ValueError("one slant, lattice point and weight column per element required")
        if np.any(np.abs(np.sum(np.abs(self.weights) ** 2, axis=-1) - 1.0) > 1e-9):
            raise ValueError("port weights must have unit total power")
        if np.any(np.count_nonzero(self.weights, axis=-2) != 1):
            raise ValueError("each element must feed exactly one port")
        feeds = self.weights.reshape(-1, n) != 0  # every point's ports, in order
        # np.ptp per port, not np.unique: numpy 2.4's np.unique imports numpy.ma
        # (1 MB) on its first call without return_inverse (with it, as below, not).
        if any(np.ptp(self.slant_rad[row]) + np.ptp(self.lattice[row, 0]) > 0 for row in feeds):
            raise ValueError("the elements of a port must share one slant and one column")
        port_slants = self.slant_rad[feeds.argmax(axis=1)]
        self.slants, self.slant_index = np.unique(port_slants, return_inverse=True)

    @property
    def n_elements(self) -> int:
        return self.slant_rad.size


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
    pattern: PatternSpec | None = None,
) -> LinkEnd:
    """Uniform M x N array of pattern elements with one port per column (K=M)
    or per element (K=1), as a link end in the array frame.

    d_v/d_h are in wavelengths. With cross_polarized=True each position holds
    a +/-45 deg pair and every column maps to two ports, one per slant.
    column_weights are the K weights of every port (default uniform, unit
    power), e.g. downtilt_weights for a column port; (point, K) weights give
    one point per row, each with its own ports.
    """
    if m_rows < 1 or n_cols < 1:
        raise ValueError("array must have at least one row and one column")
    k = m_rows if k_per_port is None else k_per_port
    if k not in (1, m_rows):
        raise ValueError("elements per port must be 1 or the full column")
    if column_weights is None:
        column_weights = np.full(k, 1.0 / math.sqrt(k), dtype=complex)
    w = np.asarray(column_weights, dtype=complex)
    if w.shape[-1:] != (k,):
        raise ValueError("weight vector length does not match port size")
    slants = np.radians([-45.0, 45.0] if cross_polarized else [slant_deg])
    n_pol = len(slants)
    # Element (column c, row r, slant p) is number (c * M + r) * n_pol + p. It
    # feeds the port of its column and slant (K = M) or its own port (K = 1).
    grid = np.meshgrid(range(n_cols), range(m_rows), range(n_pol), indexing="ij")
    c, r, p = (g.ravel() for g in grid)
    steps = [[0.0, d_h * wavelength, 0.0], [0.0, 0.0, d_v * wavelength]]
    weights = np.zeros(w.shape[:-1] + (n_cols * n_pol * (m_rows // k), c.size), dtype=complex)
    weights[..., (c * n_pol + p) * (m_rows // k) + r // k, np.arange(c.size)] = w[..., r % k]
    return LinkEnd(slants[p], pattern, 0.0, np.stack([c, r], axis=-1), steps, weights)


def port_factors(lattice, weights, k_vectors, steps) -> np.ndarray:
    """Each port's array factor sum_s w_ps exp(j k . x_s) toward a batch of
    wave vectors k (..., d), shape (..., n_ports). steps (..., d, 2) holds
    the lattice's (horizontal, vertical) steps as columns: element s sits at
    steps @ lattice[s], and the elements of a port share one column. One exp
    per (direction, step some element takes) of k @ steps, then per port a
    polynomial in the steps: Horner over its rows (rows-per-port multiply-adds
    per direction) times the powers of its column and first row. An end all
    at the origin gets its weight sums, shape (1, ..., n_ports): no exp.
    """
    feeds = weights != 0
    base = np.where(feeds, lattice.T[:, None], lattice.max()).min(axis=-1)  # column, first row
    shift = lattice[:, 1] - base[1, :, None]  # (port, element): rows above the port's first
    coef = np.sum(weights[..., None] * (shift[..., None] == np.arange(shift[feeds].max() + 1)), 1)
    batch = (1,) * (np.ndim(k_vectors) - 1)
    coef = coef.T.reshape(coef.shape[::-1] + batch)  # (row, port, 1, ...)
    used = lattice.any(axis=0)
    if not used.any():  # every element at the origin
        return coef[0].reshape(batch + (len(weights),))
    phases = k_vectors @ steps
    step = np.ones((2,) + phases.shape[:-1], dtype=complex)
    step[used] = np.exp(1j * np.moveaxis(phases, -1, 0)[used])
    factors = np.empty(coef.shape[1:2] + step.shape[1:], dtype=complex)  # port-major
    factors[...] = coef[-1]
    for c in coef[-2::-1]:
        factors *= step[1]
        factors += c
    if base.any():
        factors *= np.prod(step[:, None] ** base.reshape(base.shape + batch), axis=0)
    return np.moveaxis(factors, 0, -1)


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


def fields_gain_db(g_v, g_h):
    """Power gain in dB of (vertical, horizontal) field amplitudes."""
    power = np.abs(g_v) ** 2 + np.abs(g_h) ** 2
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)

