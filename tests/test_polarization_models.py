import math

import numpy as np
from numpy.testing import assert_allclose

from chan3d.synth import LinkEnd, end_fields

from antenna_oracle import element_pattern_3gpp


def _end(slants_deg, bearing_deg=0.0, pattern=None):
    slants = np.radians(np.asarray(slants_deg, dtype=float))
    return LinkEnd(slants, pattern, math.radians(bearing_deg))


def test_models_agree_at_boresight():
    # The angle-independent slant split is exact at the boresight direction.
    for slant in (0.0, 45.0, -45.0, 90.0):
        end = _end([slant], pattern=element_pattern_3gpp())
        bore_az, bore_zen = 0.0, math.pi / 2
        g_slant = end_fields([end], bore_az, bore_zen, "slant")[0, :, 0]
        g_rot = end_fields([end], bore_az, bore_zen, "rotated")[0, :, 0]
        assert_allclose(g_rot, g_slant, atol=1e-12)


def test_models_agree_with_bearing_at_boresight():
    end = _end([45.0], bearing_deg=120.0, pattern=element_pattern_3gpp())
    az, zen = math.radians(120.0), math.pi / 2
    g_slant = end_fields([end], az, zen, "slant")[0, :, 0]
    g_rot = end_fields([end], az, zen, "rotated")[0, :, 0]
    assert_allclose(g_rot, g_slant, atol=1e-12)


def test_rotated_model_preserves_radiated_power():
    # The rotated decomposition is an isometry: V^2 + H^2 equals the element
    # power pattern evaluated in the element frame, at every direction.
    rng = np.random.default_rng(1)
    pattern = element_pattern_3gpp()
    from chan3d.antenna import element_gain_db
    from chan3d.geom import rotation_x, rotation_z

    for _ in range(200):
        slant = rng.uniform(-math.pi / 2, math.pi / 2)
        bearing = rng.uniform(-math.pi, math.pi)
        end = LinkEnd(np.array([slant]), pattern, bearing)
        az = rng.uniform(-math.pi, math.pi)
        zen = rng.uniform(0.05, math.pi - 0.05)
        g = end_fields([end], az, zen, "rotated")[0, :, 0]
        rot = rotation_z(bearing) @ rotation_x(slant)
        direction = np.array(
            [math.sin(zen) * math.cos(az), math.sin(zen) * math.sin(az), math.cos(zen)]
        )
        local = rot.T @ direction
        local_az = math.atan2(local[1], local[0])
        local_zen = math.acos(max(-1.0, min(1.0, local[2])))
        expected = 10.0 ** (float(element_gain_db(pattern, local_az, local_zen)) / 10.0)
        assert_allclose(float(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2), expected, rtol=1e-10)


def test_models_differ_away_from_boresight():
    # Off boresight the slant approximation and the exact rotation disagree;
    # that gap is the point of carrying both models.
    end = _end([45.0], pattern=element_pattern_3gpp())
    az, zen = math.radians(50.0), math.radians(60.0)
    g_slant = end_fields([end], az, zen, "slant")[0, :, 0]
    g_rot = end_fields([end], az, zen, "rotated")[0, :, 0]
    assert not np.allclose(g_rot, g_slant, atol=1e-3)


def test_isotropic_rotated_fields_unit_power():
    end = _end([30.0])
    rng = np.random.default_rng(2)
    for _ in range(50):
        az = rng.uniform(-math.pi, math.pi)
        zen = rng.uniform(0.05, math.pi - 0.05)
        g = end_fields([end], az, zen, "rotated")[0, :, 0]
        assert_allclose(float(np.abs(g[0]) ** 2 + np.abs(g[1]) ** 2), 1.0, rtol=1e-12)
