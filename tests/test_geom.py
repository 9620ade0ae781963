import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chan3d.campaign as campaign
from chan3d.antenna import element_gain_db
from chan3d.config import default_config
from chan3d.geom import (
    pow10,
    rotation_x,
    rotation_z,
    unit_vectors,
    wrap_azimuth,
)
from chan3d.lsp import slow_fading
from chan3d.ssp import ClusterSet, reflect_zenith
from chan3d.synth import LinkEnd, end_fields

from antenna_oracle import element_pattern_3gpp, isotropic_end
from libm_oracle import per_element, ulp_distance
from synth_oracle import LinkContext, synthesize_link


def test_unit_vector_horizon_along_x():
    assert_allclose(unit_vectors(0.0, math.pi / 2), [1.0, 0.0, 0.0], atol=1e-15)


def test_unit_vector_zenith():
    v = unit_vectors(np.array([0.0, 1.0, -2.5]), 0.0)
    assert v.shape == (3, 3)
    assert_allclose(v, np.tile([0.0, 0.0, 1.0], (3, 1)), atol=1e-15)


def test_unit_vector_oblique():
    # Direct evaluation of (sin t cos p, sin t sin p, cos t) at p=pi/2, t=pi/4.
    v = unit_vectors(math.pi / 2, math.pi / 4)
    assert_allclose(v, [0.0, 0.7071067811865476, 0.7071067811865476], atol=1e-15)


def test_unit_vector_norm_is_one():
    rng = np.random.default_rng(7)
    v = unit_vectors(rng.uniform(-math.pi, math.pi, 1000), rng.uniform(0.0, math.pi, 1000))
    assert np.max(np.abs(np.linalg.norm(v, axis=-1) - 1.0)) < 1e-12


# The wave vector and its Doppler phase live in synthesize: a single ray
# arriving from `arrival` rotates its tap by exp(j k . v t), k = 2 pi f / c
# along the arrival direction.

def _doppler_phase(arrival, velocity, t, carrier_hz=2e9):
    """Phase the mobility exponential adds to a single-ray tap between 0 and
    t; arrival is an (azimuth, zenith) pair."""
    clusters = ClusterSet(
        delays_s=np.array([0.0]),
        cluster_powers=np.array([1.0]),
        ray_powers=np.array([[1.0]]),
        aod=np.array([[0.0]]),
        zod=np.array([[math.pi / 2]]),
        aoa=np.array([[arrival[0]]]),
        zoa=np.array([[arrival[1]]]),
        phases=np.zeros((1, 1, 4)),
        xpr=np.array([[1e-12]]),
    )
    ctx = LinkContext(
        isotropic_end(), isotropic_end(), clusters, 0.0, carrier_hz, velocity_mps=velocity
    )
    taps = synthesize_link(ctx, [0.0, t])[:, 0, 0, 0]
    return float(np.angle(taps[1] / taps[0]))


def test_wave_vector_magnitude_2ghz():
    # Unit speed along the arrival direction turns the tap at |k| rad/s;
    # |k| = 2*pi*f/c with c = 299792458 m/s exactly.
    t = 0.01
    phase = _doppler_phase((0.0, math.pi / 2), (1.0, 0.0, 0.0), t)
    assert_allclose(phase / t, 41.91690043903363, rtol=1e-12)


def test_wave_vector_linear_in_frequency():
    a, v = (0.3, 1.1), (1.0, 0.5, -0.2)
    assert_allclose(
        _doppler_phase(a, v, 1e-3, carrier_hz=4e9), 2.0 * _doppler_phase(a, v, 1e-3, carrier_hz=2e9)
    )


def test_wave_vector_direction_delegates():
    # The wave vector points along unit_vectors(arrival).
    rng = np.random.default_rng(13)
    k0, t = 41.91690043903363, 1e-3
    for _ in range(20):
        a = (rng.uniform(-math.pi, math.pi), rng.uniform(0.0, math.pi))
        v = rng.uniform(-2.0, 2.0, 3)
        expected = k0 * float(unit_vectors(*a) @ v) * t
        assert_allclose(_doppler_phase(a, v, t), expected, rtol=1e-9, atol=1e-15)


def test_wave_vector_rejects_nonpositive_frequency():
    clusters = ClusterSet(
        np.array([0.0]), np.array([1.0]), np.array([[1.0]]), np.zeros((1, 1)), np.ones((1, 1)),
        np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1, 4)), np.ones((1, 1)),
    )
    for carrier_hz in (0.0, -1e9):
        ctx = LinkContext(isotropic_end(), isotropic_end(), clusters, 0.0, carrier_hz)
        with pytest.raises(ValueError, match="carrier frequency must be positive"):
            synthesize_link(ctx, [0.0])


def test_doppler_phase_static_ue():
    for t in (0.0, 1.0, 5.0):
        assert _doppler_phase((0.4, 1.2), (0.0, 0.0, 0.0), t) == 0.0


def test_doppler_phase_orthogonal_velocity():
    # Arrival along +x, motion along +y.
    assert_allclose(
        _doppler_phase((0.0, math.pi / 2), (0.0, 3.0, 0.0), 2.0), 0.0, atol=1e-12
    )


def test_doppler_frequency_3kmh():
    # Classic oracle: f_D = |v| f / c for motion parallel to the wave vector.
    speed = 3.0 / 3.6
    t = 0.01
    phase = _doppler_phase((0.0, math.pi / 2), (speed, 0.0, 0.0), t)
    f_doppler = phase / (2.0 * math.pi * t)
    assert_allclose(f_doppler, speed * 2e9 / 299_792_458.0, rtol=1e-12)
    assert_allclose(f_doppler, 5.559401586635867, rtol=1e-12)


def test_doppler_phase_linear_in_time_and_velocity():
    a = (0.7, 0.9)
    v = np.array([1.0, -2.0, 0.5])
    assert_allclose(_doppler_phase(a, v, 3e-3), 3.0 * _doppler_phase(a, v, 1e-3))
    assert_allclose(_doppler_phase(a, 2.0 * v, 1e-3), 2.0 * _doppler_phase(a, v, 1e-3))


# LOS departure angles come from the slow-fading kernel; the campaign takes
# the arrival angles as the reversed departure, (az + pi, pi - zen).

def _departure(site_xyz, ue_xyz):
    """Departure (azimuth, zenith) at a site toward one UE, from lsp.slow_fading."""
    cfg = default_config("UMa", master_seed=1)
    cfg.layout.bs_height_m, cfg.spatial.enabled = float(site_xyz[2]), False
    slow = slow_fading(
        cfg, [0], np.array([ue_xyz], dtype=float), np.array([False]),
        np.array([site_xyz[:2]], dtype=float),
    )
    return float(slow.az_dep[0, 0]), float(slow.zen_dep[0, 0])


def test_los_angles_co_altitude():
    assert_allclose(_departure((0, 0, 25), (100, 0, 25)), [0.0, math.pi / 2])
    az, zen = _departure((100, 0, 25), (0, 0, 25))
    assert_allclose([wrap_azimuth(az), zen], [-math.pi, math.pi / 2])


def test_los_angles_straight_down():
    _, zen = _departure((0, 0, 25), (0, 0, 1.5))
    assert_allclose(zen, math.pi)


def test_los_angles_oblique():
    _, zen = _departure((0, 0, 25), (10, 0, 15))
    assert_allclose(zen, 3.0 * math.pi / 4)


def test_los_angles_reciprocity():
    # The arrival direction (az + pi, pi - zen) of a link is the departure
    # direction of the reversed link.
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(-100, 100, 3), rng.uniform(-100, 100, 3)
        az_ab, zen_ab = _departure(a, b)
        az_ba, zen_ba = _departure(b, a)
        assert_allclose(
            unit_vectors(az_ab + math.pi, math.pi - zen_ab), unit_vectors(az_ba, zen_ba), atol=1e-12
        )


def test_los_pairs_wrap_azimuth(tmp_path, monkeypatch):
    # The (link, 2) LOS pairs a phase-2 campaign hands to the cluster draw:
    # azimuths wrapped into [-pi, pi), zeniths in [0, pi], and the arrival
    # the wrapped reversed departure, bit for bit.
    pairs = []
    batched = campaign.generate_cluster_set

    def recording(lsps, deps, arrs, cfg, rngs):
        pairs.append((deps, arrs))
        return batched(lsps, deps, arrs, cfg, rngs)

    monkeypatch.setattr(campaign, "generate_cluster_set", recording)
    cfg = default_config("UMa", master_seed=5)
    cfg.layout.n_rings = 0
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 2
    cfg.run.output_dir = str(tmp_path)
    campaign.run_campaign(cfg)
    assert len(pairs) == 6
    for deps, arrs in pairs:
        assert deps.shape == arrs.shape == (3, 2)
        for angles in (deps, arrs):
            assert np.all((-math.pi <= angles[:, 0]) & (angles[:, 0] < math.pi))
            assert np.all((0.0 <= angles[:, 1]) & (angles[:, 1] <= math.pi))
        for (az, zen), arrival in zip(deps.tolist(), arrs.tolist()):
            assert arrival == [float(wrap_azimuth(az + math.pi)), math.pi - zen]


def test_los_angles_coincident_raises():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="zero distance"):
        _departure((1, 2, 3), (1, 2, 3))


# Local-to-global field rotation is the "rotated" polarization model of
# synth.end_fields: an element field rotated by the bearing (about z) and
# the slant (a roll about the boresight x axis).

def _rotated_fields(slant, bearing, azimuth, zenith, pattern=None):
    end = LinkEnd(np.array([slant]), pattern, bearing)
    return end_fields([end], azimuth, zenith, "rotated")[..., 0]


def test_field_transform_identity():
    # Unrotated element: the global field is the local vertical field.
    rng = np.random.default_rng(3)
    az, zen = rng.uniform(-math.pi, math.pi, 100), rng.uniform(0.05, math.pi - 0.05, 100)
    pattern = element_pattern_3gpp()
    g = _rotated_fields(0.0, 0.0, az, zen, pattern)
    amp = np.sqrt(10.0 ** (element_gain_db(pattern, az, zen) / 10.0))
    assert_allclose(g[:, 0], amp, rtol=1e-12)
    assert_allclose(g[:, 1], 0.0, atol=1e-12)


def test_field_transform_preserves_norm():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        slant, bearing = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        g = _rotated_fields(
            slant, bearing, rng.uniform(-math.pi, math.pi), rng.uniform(0.01, math.pi - 0.01)
        )[0]
        assert abs(float(np.sum(np.abs(g) ** 2)) - 1.0) < 1e-12


def test_field_transform_quarter_roll_swaps_polarizations():
    # Element rolled 90 deg about the +x boresight: a vertical field at
    # boresight must come out purely horizontal. Oracle: at direction
    # (az=0, zen=pi/2), e_theta=(0,0,-1) and e_phi=(0,1,0); rolling the frame
    # maps the local e_theta onto -e_phi.
    g_v, g_h = _rotated_fields(math.pi / 2, 0.0, 0.0, math.pi / 2)[0]
    assert abs(g_v) < 1e-12
    assert_allclose(abs(g_h), 1.0, atol=1e-12)


def test_local_angles_pure_bearing():
    # An element at bearing 120 deg sees the global direction (120 deg, zen)
    # at local azimuth 0 and the same zenith.
    pattern = element_pattern_3gpp()
    g_v, g_h = _rotated_fields(0.0, math.radians(120.0), math.radians(120.0), 1.0, pattern)[0]
    boresight = math.sqrt(10.0 ** (float(element_gain_db(pattern, 0.0, 1.0)) / 10.0))
    assert_allclose(g_v, boresight, rtol=1e-12)
    assert abs(g_h) < 1e-12


def test_rotation_helpers_are_proper():
    rng = np.random.default_rng(5)
    for builder in (rotation_x, rotation_z):
        r = builder(rng.uniform(-3, 3))
        assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)


def test_wrap_azimuth_range():
    rng = np.random.default_rng(3)
    values = rng.uniform(-50, 50, 1000)
    wrapped = wrap_azimuth(values)
    assert np.all(wrapped >= -math.pi)
    assert np.all(wrapped < math.pi)
    assert_allclose(np.cos(wrapped), np.cos(values), atol=1e-9)
    assert_allclose(np.sin(wrapped), np.sin(values), atol=1e-9)


# The azimuth wrap and the zenith reflection run the float modulo only where
# it is not the identity. References: the whole-array % forms they replaced,
# copied here, since the oracles in tests/ call the src functions.

def _wrap_by_mod(angle):
    return (np.asarray(angle) + np.pi) % (2.0 * np.pi) - np.pi


def _reflect_by_mod(zenith):
    z = np.mod(np.asarray(zenith, dtype=float), 2.0 * math.pi)
    return np.where(z > math.pi, 2.0 * math.pi - z, z)


# +-0.0 among them: np.mod(-0.0, 2 pi) is +0.0, so a mask of z < 0 would keep -0.0.
MOD_EDGES = [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi,
             math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0), 1e300, -1e-310, math.nan]


@pytest.mark.parametrize("f, reference", [(wrap_azimuth, _wrap_by_mod),
                                          (reflect_zenith, _reflect_by_mod)])
def test_masked_modulo_equals_the_whole_array_modulo_bit_for_bit(f, reference):
    rng = np.random.default_rng(29)
    arrays = [rng.uniform(-20.0, 20.0, (40, 25)), rng.uniform(-3.2, 3.6, 1000), np.array(MOD_EDGES)]
    for values in arrays:
        kept = values.copy()
        out, ref = f(values), reference(values)
        assert type(out) is np.ndarray and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()
        assert values.tobytes() == kept.tobytes()  # the input is not wrapped in place
    for value in MOD_EDGES:  # 0-d: the type the % form returns, too
        for zero_d in (value, np.float64(value), np.array(value)):
            out, ref = f(zero_d), reference(zero_d)
            assert type(out) is type(ref)
            assert np.asarray(out).tobytes() == np.asarray(ref).tobytes()


@pytest.mark.parametrize("shape", [(), (0,), (5, 7)])
@pytest.mark.parametrize("f", [math.log10, math.exp, math.acos, math.atan2])
def test_per_element_equals_a_python_loop_bit_for_bit(f, shape):
    # The scalar-libm oracle of tests/libm_oracle.py: f over each element.
    # atan2 takes two arguments; at (5, 7) they broadcast from (5, 1) and (1, 7).
    rng = np.random.default_rng(17)
    low = 1e-3 if f is math.log10 else -1.0  # inside every domain
    if f is math.atan2:
        shapes = [(5, 1), (1, 7)] if shape == (5, 7) else [shape, shape]
    else:
        shapes = [shape]
    args = [rng.uniform(low, 1.0, s) for s in shapes]
    loop = np.array([f(*map(float, values)) for values in np.broadcast(*args)])
    out = per_element(f, *args)
    assert out.shape == shape and out.dtype == float
    assert out.tobytes() == loop.tobytes()


def _log_uniform(rng, low, high, n):
    return 10.0 ** rng.uniform(math.log10(low), math.log10(high), n)


# Each numpy array form in src/ beside the libm function it replaced, over
# the inputs its kernels see, and the most units in the last place they
# differ by: log10 of 3D distances (pathloss) and of energies and power
# ratios near and far from 1 (RSRP, geometry factor); exp of the LOS
# probability's exponent; 10**x of the LSP spreads' log10, the Rice K in
# dB / 10, RSRP / 10 and -(PL + SF) / 20; atan2 of site offsets and of
# rotated unit vectors; acos of the direction cosines. The two log10s
# differ by up to 2 ulps on arguments near 1, where the result is small.
ARRAY_FORMS = {
    "log10": (np.log10, math.log10, 2, lambda rng, n: [np.concatenate([
        _log_uniform(rng, 1.0, 2e4, n), _log_uniform(rng, 1e-25, 1e8, n), rng.uniform(0.5, 3.0, n)
    ])]),
    "exp": (np.exp, math.exp, 1, lambda rng, n: [rng.uniform(-80.0, 0.3, 3 * n)]),
    "power": (lambda x: np.power(10.0, x), lambda x: math.pow(10.0, x), 1,
              lambda rng, n: [rng.uniform(-20.0, 4.0, 3 * n)]),
    "arctan2": (np.arctan2, math.atan2, 1, lambda rng, n: [
        np.concatenate([rng.uniform(-3e3, 3e3, n), rng.uniform(-1.0, 1.0, 2 * n)]),
        np.concatenate([rng.uniform(-3e3, 3e3, n), rng.uniform(-1.0, 1.0, 2 * n)])]),
    "arccos": (np.arccos, math.acos, 1, lambda rng, n: [rng.uniform(-1.0, 1.0, 3 * n)]),
}


@pytest.mark.parametrize("name", ARRAY_FORMS)
def test_array_forms_within_an_ulp_or_two_of_scalar_libm(name):
    # numpy's array forms round differently from libm, and the goldens moved
    # once for it; the difference stays within the stated units in the last
    # place. Each array element also equals the same function on that value
    # alone, which the per-link oracles in tests/ rely on.
    array_form, scalar_form, bound, draw = ARRAY_FORMS[name]
    args = draw(np.random.default_rng(11), 100_000)
    got = array_form(*args)
    distance = ulp_distance(got, per_element(scalar_form, *args))
    assert distance.max() <= bound
    alone = [array_form(*(float(a[i]) for a in args)) for i in range(0, got.size, 997)]
    assert np.array_equal(got[::997], alone)


def test_pow10_is_numpy_power_zero_at_minus_inf_and_raises_callers_message():
    x = np.random.default_rng(4).normal(0.0, 50.0, 200)
    assert pow10(x, "unused").tobytes() == np.array([np.power(10.0, v) for v in x.tolist()]).tobytes()
    assert pow10(np.array([-np.inf, 0.0, 2.0]), "unused").tolist() == [0.0, 1.0, 100.0]
    with pytest.raises(ValueError, match=r"^the draw overflowed: lower sigma$") as info:
        pow10(np.array([[1.0, 400.0]]), "the draw overflowed: lower sigma")
    assert info.value.__cause__ is None and info.value.__suppress_context__
    with pytest.raises(ValueError, match="^overflow$"):
        pow10(400.0, "overflow")
