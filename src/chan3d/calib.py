"""Calibration metrics: RSRP, attachment, geometry factor, spread
estimators, channel eigenvalues, and empirical CDFs."""
from __future__ import annotations

import math

import numpy as np

from .geom import wrap_azimuth
from .ssp import circular_mean


def rsrp_db(p_tx_dbm, g_tx_db, g_rx_db, pathloss_db, sf_db):
    """Slow-fading RSRP: P_TX + G_T + G_R - PL - SF, all in dB. Broadcasts."""
    return (
        np.asarray(p_tx_dbm, dtype=float)
        + np.asarray(g_tx_db, dtype=float)
        + np.asarray(g_rx_db, dtype=float)
        - np.asarray(pathloss_db, dtype=float)
        - np.asarray(sf_db, dtype=float)
    )


def rsrp_fast_fading_db(p_tx_dbm: float, taps) -> np.ndarray:
    """RSRP including fast fading per leading (cell) index of (..., time, tap,
    TX, RX) taps: transmit power plus their time-averaged total energy per
    TX-RX pair (slow fading is in the taps)."""
    power = (np.abs(taps) ** 2).reshape(taps.shape[:-3] + (-1,))
    energy = power.sum(axis=-1).mean(axis=-1) / (taps.shape[-2] * taps.shape[-1])
    return p_tx_dbm + 10.0 * np.log10(energy)


def attach(rsrp_values):
    """Index of the serving cell: argmax RSRP over the last (cell) axis, ties
    to the lowest index. One index for one UE's row, an array for a block."""
    values = np.asarray(rsrp_values, dtype=float)
    if values.size == 0:
        raise ValueError("at least one cell required")
    return np.argmax(values, axis=-1)


def geometry_factor_db(rsrp_values, serving):
    """Serving power over the linear sum of all other cells' powers, in dB,
    for each row of a (UE, cell) block with one serving index per row.

    Interference is accumulated in the linear power domain. With no
    interferer the UE is isolated and +inf is returned (callers exclude it
    from CDFs).
    """
    linear = 10.0 ** (np.asarray(rsrp_values, dtype=float) / 10.0)
    own = np.take_along_axis(linear, np.asarray(serving)[..., None], axis=-1)[..., 0]
    interference = linear.sum(axis=-1) - own
    ratio = np.divide(own, interference, out=np.full_like(own, np.inf), where=interference > 0)
    return 10.0 * np.log10(ratio)


def angular_spread_deg(angles_rad, powers) -> float:
    """Power-weighted circular RMS spread in degrees.

    Deviations are wrapped about the power-weighted circular mean direction.
    """
    p = np.asarray(powers, dtype=float).reshape(-1)
    a = np.asarray(angles_rad, dtype=float).reshape(-1)
    total = p.sum()
    if total <= 0:
        raise ValueError("total power must be positive")
    mean = circular_mean(a, p)
    dev = np.asarray(wrap_azimuth(a - mean))
    return math.degrees(math.sqrt(float((p * dev**2).sum() / total)))


def delay_spread_s(delays_s, powers) -> float:
    """Power-weighted RMS delay spread in seconds."""
    p = np.asarray(powers, dtype=float).reshape(-1)
    tau = np.asarray(delays_s, dtype=float).reshape(-1)
    total = p.sum()
    if total <= 0:
        raise ValueError("total power must be positive")
    mean = float((p * tau).sum() / total)
    second = float((p * tau**2).sum() / total)
    return math.sqrt(max(0.0, second - mean * mean))


def top_eigenvalues(taps):
    """The two largest eigenvalues of the time-averaged wideband covariance
    sum_n H_n H_n^H of (time, tap, TX, RX) taps, via singular values of the
    stacked tap matrices."""
    n_times, n_taps, n_tx, n_rx = taps.shape
    stacked = taps.transpose(2, 0, 1, 3).reshape(n_tx, n_times * n_taps * n_rx)
    singular = np.linalg.svd(stacked, compute_uv=False)
    top = (singular**2 / n_times).tolist() + [0.0, 0.0]  # 0 past the covariance's rank
    return tuple(top[:2])


def empirical_cdf(samples):
    """Sorted sample values with step probabilities i/n.

    Non-finite samples are dropped; an empty (or all-non-finite) input is an
    error.
    """
    values = np.asarray(samples, dtype=float).reshape(-1)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise ValueError("need at least one finite sample")
    values = np.sort(values)
    probabilities = np.arange(1, values.size + 1) / values.size
    return values, probabilities


REPORT_COLUMNS = (
    "ue_id", "site", "cell", "cl_db", "gf_db",
    "asd", "asa", "esd", "esa", "ds", "l1", "l2",
)


def write_report(columns, fh):
    """Delimited-text export of per-UE report columns with a single header line.

    columns maps REPORT_COLUMNS names to equal-length sequences. Integers are
    written by str, floats by repr; a float column left out (the spreads and
    eigenvalues in phase 1) is written as nan.
    """
    n = len(columns["ue_id"])
    text = []
    for name in REPORT_COLUMNS:
        if name not in columns:
            text.append(["nan"] * n)
        elif name in REPORT_COLUMNS[:3]:
            text.append(map(str, np.asarray(columns[name], dtype=int).tolist()))
        else:
            text.append(map(repr, np.asarray(columns[name], dtype=float).tolist()))
    fh.write(" ".join(REPORT_COLUMNS) + "\n")
    fh.writelines(" ".join(row) + "\n" for row in zip(*text))
