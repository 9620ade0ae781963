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


def mod_2pi(x: np.ndarray) -> np.ndarray:
    """x % (2 pi) in place, run only outside (0, 2 pi), where it is not the identity."""
    return np.mod(x, 2.0 * np.pi, out=x, where=~((x > 0.0) & (x < 2.0 * np.pi)))


def wrap_azimuth(angle):
    """Wrap an azimuth angle (radians, scalar or array) into [-pi, pi)."""
    return mod_2pi(np.asarray(np.asarray(angle) + np.pi)) - np.pi


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


def pow10(x, overflow_message: str) -> np.ndarray:
    """10**x by np.power (0.0 at -inf); ValueError(overflow_message) on overflow."""
    with np.errstate(over="raise"):
        try:
            return np.power(10.0, x)
        except FloatingPointError:
            raise ValueError(overflow_message) from None


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_z(angle) -> np.ndarray:
    """The rotation about z by angle: (3, 3), or (..., 3, 3) over an array of angles."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.zeros(np.shape(angle) + (3, 3))
    out[..., 0, 0], out[..., 0, 1], out[..., 2, 2] = c, -s, 1.0
    out[..., 1, 0], out[..., 1, 1] = s, c
    return out
