"""Coordinate conventions, direction vectors, spherical bases and rotations.

Conventions used throughout the package:

* Cartesian frame: x/y horizontal, z up.
* Azimuth: measured in the xy plane from +x toward +y, wrapped to [-pi, pi).
* Zenith: measured from the +z axis, in [0, pi]; the horizon sits at pi/2 and
  tilting a beam below the horizon increases the zenith angle.
"""
from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def wrap_azimuth(angle):
    """Wrap an azimuth angle (radians, scalar or array) into [-pi, pi)."""
    return (np.asarray(angle) + np.pi) % (2.0 * np.pi) - np.pi


def unit_vectors(azimuth, zenith) -> np.ndarray:
    """Cartesian unit vectors for broadcastable azimuth/zenith arrays.

    Returns an array with one extra trailing axis of size 3.
    """
    az = np.asarray(azimuth, dtype=float)
    zen = np.asarray(zenith, dtype=float)
    st = np.sin(zen)
    out = np.empty(np.broadcast_shapes(az.shape, zen.shape) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = st * np.cos(az), st * np.sin(az), np.cos(zen)
    return out


def spherical_basis(azimuth, zenith) -> tuple[np.ndarray, np.ndarray]:
    """Spherical basis unit vectors (e_theta, e_phi) at the given direction.

    e_theta points toward increasing zenith, e_phi toward increasing azimuth.
    Broadcasts; each output gains a trailing axis of size 3.
    """
    az = np.asarray(azimuth, dtype=float)
    zen = np.asarray(zenith, dtype=float)
    ct, st = np.cos(zen), np.sin(zen)
    cp, sp = np.cos(az), np.sin(az)
    e_theta, e_phi = np.empty((2,) + np.broadcast_shapes(az.shape, zen.shape) + (3,))
    e_theta[..., 0], e_theta[..., 1], e_theta[..., 2] = ct * cp, ct * sp, -st
    e_phi[..., 0], e_phi[..., 1], e_phi[..., 2] = -sp, cp, 0.0
    return e_theta, e_phi


def per_element(f, *arrays) -> np.ndarray:
    """The scalar libm function f (math.log10, exp, acos, atan2, ...) over each
    element of the broadcast arrays: numpy's array forms round differently in
    a few percent of elements, and this keeps the bytes of the per-link form."""
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in arrays))
    values = map(f, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)


def pow10(x, overflow_message: str) -> np.ndarray:
    """10**x by per_element's math.pow (0.0 at -inf); ValueError(overflow_message) on overflow."""
    try:
        return per_element(lambda v: math.pow(10.0, v), x)
    except OverflowError:
        raise ValueError(overflow_message) from None


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
