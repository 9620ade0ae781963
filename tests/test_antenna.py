import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.antenna import (
    ArrayGeometry,
    PatternSpec,
    downtilt_weights,
    element_gain_db,
    itu_port_pattern,
    port_factors,
    uniform_planar_array,
)
import chan3d.campaign as campaign
from chan3d.config import default_config
from chan3d.deploy import CELL_BEARINGS_DEG, hex_layout
from chan3d.geom import SPEED_OF_LIGHT, rotation_z, unit_vectors, wrap_azimuth
from chan3d.ssp import ClusterSet
from chan3d.synth import LinkEnd

from antenna_oracle import (
    composite_port_gain_db, element_pattern_3gpp, element_positions, isotropic_end,
    per_port_fields, response_phases, tx_gains_db_per_cell, tx_gains_db_per_element,
)
from synth_oracle import LinkContext, synthesize_link

D2R = math.pi / 180.0


def test_element_boresight_gain():
    spec = element_pattern_3gpp()
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 0.0, tilt), 8.0, atol=1e-9)


def test_element_azimuth_half_power():
    spec = element_pattern_3gpp()
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 32.5 * D2R, tilt), 5.0, atol=1e-9)


def test_element_back_lobe_clipped():
    spec = element_pattern_3gpp()
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 180.0 * D2R, tilt), -22.0, atol=1e-9)


def test_itu_port_boresight_gain():
    spec = itu_port_pattern(downtilt_deg=6.0)
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 0.0, tilt), 17.0, atol=1e-9)


def test_itu_port_elevation_half_power():
    spec = itu_port_pattern()
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 0.0, tilt + 7.5 * D2R), 14.0, atol=1e-9)


def test_itu_port_vertical_floor():
    spec = itu_port_pattern()
    tilt = spec.theta_tilt_deg * D2R
    assert_allclose(element_gain_db(spec, 0.0, tilt + 60.0 * D2R), -3.0, atol=1e-9)


def test_element_pattern_peak_on_sphere_grid():
    spec = element_pattern_3gpp()
    az = np.radians(np.arange(-180.0, 180.0, 1.0))
    zen = np.radians(np.arange(0.0, 181.0, 1.0))
    gains = element_gain_db(spec, az[:, None], zen[None, :])
    assert gains.max() <= 8.0 + 1e-12
    assert_allclose(element_gain_db(spec, 0.0, math.radians(90.0)), gains.max())


def test_pattern_symmetry():
    spec = element_pattern_3gpp()
    rng = np.random.default_rng(2)
    az = rng.uniform(0, math.pi, 100)
    zen_off = rng.uniform(0, math.pi / 2, 100)
    tilt = math.radians(spec.theta_tilt_deg)
    assert_allclose(
        element_gain_db(spec, az, np.full_like(az, tilt)),
        element_gain_db(spec, -az, np.full_like(az, tilt)),
    )
    assert_allclose(
        element_gain_db(spec, 0.0, tilt + zen_off),
        element_gain_db(spec, 0.0, tilt - zen_off),
    )


def test_pattern_spec_validation():
    with pytest.raises(ValueError):
        PatternSpec(8.0, 30.0, 30.0, 0.0, 65.0)
    with pytest.raises(ValueError):
        PatternSpec(8.0, -1.0, 30.0, 65.0, 65.0)


# The slant split of a field pattern is the "slant" polarization model of
# synth.end_fields: (sqrt(A) cos a, sqrt(A) sin a) for element gain A.

def _slant_fields(slants, azimuth=0.0, zenith=math.pi / 2, pattern=None):
    end = LinkEnd(np.atleast_1d(np.asarray(slants, dtype=float)), pattern)
    fields = per_port_fields(end, azimuth, zenith, "slant")
    return fields[..., 0, :], fields[..., 1, :]


def test_slant_fields_limits():
    # An element pattern at boresight has gain 8 dBi.
    amp = math.sqrt(10.0 ** 0.8)
    g_v, g_h = _slant_fields([0.0, math.pi / 2, math.pi / 4], pattern=element_pattern_3gpp())
    assert_allclose(g_v[0], [amp, 0.0, amp / math.sqrt(2.0)], atol=1e-15)
    assert_allclose(g_h[0], [0.0, amp, amp / math.sqrt(2.0)], atol=1e-15)


def test_slant_fields_power_conservation():
    rng = np.random.default_rng(9)
    pattern = element_pattern_3gpp()
    az, zen = rng.uniform(-math.pi, math.pi, 500), rng.uniform(0.0, math.pi, 500)
    alphas = rng.uniform(-math.pi, math.pi, 7)
    g_v, g_h = _slant_fields(alphas, az, zen, pattern)
    gains = 10.0 ** (element_gain_db(pattern, az, zen) / 10.0)
    assert_allclose(np.abs(g_v) ** 2 + np.abs(g_h) ** 2, np.tile(gains[:, None], 7), rtol=1e-12)


def _column(m, d_v, wavelength=0.15):
    return uniform_planar_array(m, 1, d_v, 0.5, wavelength)


def _k(wavelength, azimuth, zenith):
    return (2.0 * math.pi / wavelength) * unit_vectors(azimuth, zenith)


def _response(geom, k):
    """Each element's array response: port_factors with each element its own port."""
    return port_factors(geom.lattice, np.eye(geom.n_elements), k, geom.steps.T)


def test_array_response_single_element():
    geom = _column(1, 0.5)
    assert_allclose(_response(geom, _k(0.15, 0.3, 1.0)), [1.0 + 0j])


def test_array_response_horizon_wave_orthogonal():
    wavelength = 0.15
    geom = _column(2, 0.5, wavelength)
    resp = _response(geom, _k(wavelength, 0.0, math.pi / 2))
    assert_allclose(resp[0], resp[1], atol=1e-12)


def test_array_response_zenith_wave_pi_shift():
    wavelength = 0.15
    geom = _column(2, 0.5, wavelength)
    resp = _response(geom, _k(wavelength, 0.0, 0.0))
    # k . dx = (2 pi / lambda)(lambda / 2) = pi between the two elements.
    assert_allclose(np.angle(resp[1] / resp[0]), math.pi, atol=1e-12)


def test_array_response_unit_modulus():
    geom = uniform_planar_array(4, 2, 0.7, 0.5, 0.15)
    rng = np.random.default_rng(4)
    k = _k(SPEED_OF_LIGHT / 2e9, rng.uniform(-3, 3, 50), rng.uniform(0, math.pi, 50))
    resp = _response(geom, k)
    assert resp.shape == (50, 8)
    assert_allclose(np.abs(resp), 1.0, atol=1e-12)


def _bound_arrays(wavelength):
    """The arrays of the port-factor bound: the default tilted column, a
    cross-polarized column, 4 cross-polarized columns at K = M and K = 1,
    and itu_port's single element."""
    w = downtilt_weights(10, 0.5, math.radians(102.0))
    return {
        "default": uniform_planar_array(10, 1, 0.5, 0.5, wavelength, column_weights=w),
        "xpol": uniform_planar_array(10, 1, 0.8, 0.5, wavelength, cross_polarized=True),
        "xpol4_k_m": uniform_planar_array(
            10, 4, 0.5, 0.5, wavelength, cross_polarized=True, column_weights=w),
        "xpol4_k1": uniform_planar_array(10, 4, 0.5, 0.5, wavelength, 1, cross_polarized=True),
        "itu_port": uniform_planar_array(1, 1, 0.5, 0.5, wavelength),
    }


@pytest.mark.parametrize("name", ["default", "xpol", "xpol4_k_m", "xpol4_k1", "itu_port"])
def test_port_factors_equal_per_element_sum(name):
    # Each port's factor from one exp per lattice step equals the per-element
    # form exp(1j * k @ x.T) @ W.T within 1e-12 of the port's weight sum
    # sum |w|, toward random directions, with the lattice turned to every
    # cell bearing as phase 2 turns it. The bound was fixed before the
    # first run.
    wavelength = SPEED_OF_LIGHT / 2e9
    geom = _bound_arrays(wavelength)[name]
    rng = np.random.default_rng(12)
    k = _k(wavelength, rng.uniform(-math.pi, math.pi, 2000), rng.uniform(0.0, math.pi, 2000))
    bound = 1e-12 * np.abs(geom.weights).sum(axis=1)
    for bearing in np.radians(CELL_BEARINGS_DEG):
        rot = rotation_z(bearing).T
        steps, x = geom.steps @ rot, element_positions(geom) @ rot
        got = port_factors(geom.lattice, geom.weights, k, steps.T)
        want = np.exp(1j * k @ x.T) @ geom.weights.T
        assert np.all(np.abs(got - want) <= bound), (name, bearing)


# Port virtualization: synthesize's taps at the ports of the TX weight
# matrix equal its taps with each element its own port, mapped by the
# weights (synth_oracle.to_ports).

def _port_taps(port_weights, n_elements, rng, steps=None):
    """Element and port taps at t=0 of a random 3-cluster link over a column
    of n_elements with the given (default random) steps: (n, S, 1) and
    (n, P, 1)."""
    n_clusters, n_rays = 3, 4
    powers = rng.dirichlet(np.ones(n_clusters))
    clusters = ClusterSet(
        delays_s=np.arange(n_clusters) * 1e-7,
        cluster_powers=powers,
        ray_powers=np.repeat(powers[:, None] / n_rays, n_rays, axis=1),
        aod=rng.uniform(-math.pi, math.pi, (n_clusters, n_rays)),
        zod=rng.uniform(0.2, math.pi - 0.2, (n_clusters, n_rays)),
        aoa=rng.uniform(-math.pi, math.pi, (n_clusters, n_rays)),
        zoa=rng.uniform(0.2, math.pi - 0.2, (n_clusters, n_rays)),
        phases=rng.uniform(0.0, 2.0 * math.pi, (n_clusters, n_rays, 4)),
        xpr=np.full((n_clusters, n_rays), 0.1),
    )
    if steps is None:
        steps = rng.uniform(-0.2, 0.2, (2, 3))
    lattice = np.stack([np.zeros(n_elements, dtype=int), np.arange(n_elements)], axis=-1)
    taps = [
        synthesize_link(LinkContext(
            LinkEnd(np.zeros(n_elements), lattice=lattice, steps=steps, weights=weights),
            isotropic_end(), clusters, 0.0, 2e9,
        ), [0.0])[0]
        for weights in (None, port_weights)
    ]
    return tuple(taps)


def test_virtualize_single_element_port():
    geom = uniform_planar_array(4, 1, 0.5, 0.5, 0.15, k_per_port=1)
    elements, ports = _port_taps(geom.weights, 4, np.random.default_rng(1))
    assert ports.shape == elements.shape
    assert_allclose(ports[:, 2], elements[:, 2], rtol=1e-15)


def test_virtualize_coherent_sum():
    # Co-located elements see one channel; a uniform-weight column port
    # adds it coherently, sqrt(m) in amplitude.
    m = 4
    geom = _column(m, 0.5)
    rng = np.random.default_rng(2)
    elements, ports = _port_taps(geom.weights, m, rng, np.zeros((2, 3)))
    assert_allclose(ports[:, 0], math.sqrt(m) * elements[:, 0], rtol=1e-12)


def test_virtualize_matches_bruteforce():
    m = 4
    rng = np.random.default_rng(17)
    weights = rng.normal(size=m) + 1j * rng.normal(size=m)
    weights /= np.linalg.norm(weights)
    geom = uniform_planar_array(m, 1, 0.5, 0.5, 0.15, column_weights=weights)
    elements, ports = _port_taps(geom.weights, m, rng)
    expected = np.zeros(elements.shape[0], dtype=complex)
    for k in range(m):
        expected += weights[k] * elements[:, k, 0]
    assert_allclose(ports[:, 0, 0], expected, atol=1e-12)


def test_virtualize_is_linear():
    m = 3
    rng = np.random.default_rng(21)
    w1 = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
    w2 = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
    a, b = 1.7 - 0.3j, -0.6 + 2.2j
    steps = rng.uniform(-0.2, 0.2, (2, 3))
    ports = [
        _port_taps(w, m, np.random.default_rng(5), steps)[1] for w in (a * w1 + b * w2, w1, w2)
    ]
    assert_allclose(ports[0], a * ports[1] + b * ports[2], rtol=1e-12)


def test_virtualize_unknown_port():
    # A weight matrix over another element count names elements the array
    # does not have.
    with pytest.raises(ValueError):
        _port_taps(np.ones((1, 3)), 2, np.random.default_rng(3))


def test_weight_matrix_places_port_weights():
    # Column c, slant p is port 2c + p: the column weights on its elements
    # (c * M + r) * 2 + p, in row order, and zero elsewhere; element
    # (c, r, p) sits at lattice point (c, r), (0, c d_h, r d_v) wavelengths,
    # with slant -45/+45 deg.
    w = downtilt_weights(3, 0.7, math.radians(100.0))
    geom = uniform_planar_array(3, 2, 0.7, 0.6, 0.15, cross_polarized=True, column_weights=w)
    assert geom.weights.shape == (4, geom.n_elements) == (4, 12)
    for c in range(2):
        for p in range(2):
            column = [(c * 3 + r) * 2 + p for r in range(3)]
            assert np.array_equal(geom.weights[2 * c + p, column], w)
            assert np.count_nonzero(geom.weights[2 * c + p]) == 3
            assert geom.lattice[column].tolist() == [[c, r] for r in range(3)]
            expected = [[0.0, c * 0.6 * 0.15, r * 0.7 * 0.15] for r in range(3)]
            assert np.array_equal(element_positions(geom)[column], expected)
            assert np.all(geom.slant_rad[column] == math.radians(90.0 * p - 45.0))
    assert np.array_equal(geom.steps, [[0.0, 0.6 * 0.15, 0.0], [0.0, 0.0, 0.7 * 0.15]])
    per_element = uniform_planar_array(3, 2, 0.5, 0.5, 0.15, k_per_port=1)
    assert np.array_equal(per_element.weights, np.eye(6))


def test_downtilt_weights_single_element():
    assert_allclose(downtilt_weights(1, 0.5, math.radians(100.0)), [1.0 + 0j])


def test_downtilt_weights_unit_power():
    w = downtilt_weights(10, 0.5, math.radians(102.0))
    assert_allclose(np.sum(np.abs(w) ** 2), 1.0, atol=1e-12)


def test_downtilt_weights_steer_peak():
    # Scan the composite array factor magnitude over zenith in 0.1 deg steps;
    # the peak must fall within 0.5 deg of the steering angle.
    m, d_v, tilt_deg = 10, 0.5, 102.0
    w = downtilt_weights(m, d_v, math.radians(tilt_deg))
    zen = np.radians(np.arange(0.0, 180.0, 0.1))
    phases = np.exp(2j * math.pi * d_v * np.arange(m)[None, :] * np.cos(zen)[:, None])
    af = np.abs(phases @ w)
    peak_deg = math.degrees(zen[np.argmax(af)])
    assert abs(peak_deg - tilt_deg) <= 0.5


def test_downtilt_weights_validation():
    with pytest.raises(ValueError):
        downtilt_weights(0, 0.5, 1.0)
    with pytest.raises(ValueError):
        downtilt_weights(4, 0.0, 1.0)


def test_uniform_planar_array_counts():
    geom = uniform_planar_array(4, 3, 0.5, 0.6, 0.15)
    assert geom.n_elements == 12
    assert geom.weights.shape[0] == 3
    geom_k1 = uniform_planar_array(4, 3, 0.5, 0.6, 0.15, k_per_port=1)
    assert geom_k1.weights.shape[0] == 12
    cross = uniform_planar_array(4, 2, 0.5, 0.5, 0.15, cross_polarized=True)
    assert cross.n_elements == 16
    assert cross.weights.shape[0] == 4
    assert set(np.round(np.degrees(np.unique(cross.slant_rad)), 6)) == {-45.0, 45.0}


def _origin(n):
    """Lattice and steps of n elements all at the origin."""
    return np.zeros((n, 2), dtype=int), np.zeros((2, 3))


def test_array_geometry_validates_port_power():
    with pytest.raises(ValueError, match="unit total power"):
        ArrayGeometry(*_origin(2), np.zeros(2), [[1.0, 1.0]])
    with pytest.raises(ValueError, match="does not match port size"):
        uniform_planar_array(4, 1, 0.5, 0.5, 0.15, column_weights=[0.5, 0.5, 0.5])


def test_array_geometry_requires_partition():
    # Every element feeds exactly one port, and a port's elements share one slant.
    with pytest.raises(ValueError, match="exactly one port"):
        ArrayGeometry(*_origin(2), np.zeros(2), [[1.0, 0.0]])
    half = math.sqrt(0.5)
    with pytest.raises(ValueError, match="exactly one port"):
        ArrayGeometry(*_origin(2), np.zeros(2), [[half, half], [0.0, 1.0]])
    with pytest.raises(ValueError, match="share one slant"):
        ArrayGeometry(*_origin(2), [0.0, math.pi / 2], [[half, half]])
    ArrayGeometry(*_origin(2), [0.0, math.pi / 2], np.eye(2))


def test_composite_port_gain_peaks_near_tilt():
    wavelength = 0.15
    w = downtilt_weights(10, 0.5, math.radians(102.0))
    geom = uniform_planar_array(10, 1, 0.5, 0.5, wavelength, column_weights=w)
    spec = element_pattern_3gpp()
    zen = np.radians(np.arange(60.0, 150.0, 0.1))
    gains = composite_port_gain_db(spec, geom, 0, wavelength, 0.0, zen)
    peak = math.degrees(zen[np.argmax(gains)])
    assert abs(peak - 102.0) <= 0.5
    # Peak composite gain is the element peak plus the coherent array gain,
    # less the element roll-off at 12 deg off broadside.
    expected = 8.0 + 10.0 * math.log10(10.0) - 12.0 * (12.0 / 65.0) ** 2
    assert abs(gains.max() - expected) < 0.05


@pytest.mark.parametrize("k_per_port", [1, 10])
@pytest.mark.parametrize("cross_polarized", [False, True])
def test_split_port_gain_matches_composite(k_per_port, cross_polarized):
    # The campaign's TX gains, port 0's factors per (UE, site) gathered to
    # the cells, equal the per-cell port form bit for bit, and the per-cell,
    # per-element form within 1e-10 dB, toward UEs all around the 19 sites,
    # above and below the antennas.
    cfg = default_config("UMa")
    cfg.antenna.k_per_port = k_per_port
    cfg.antenna.cross_polarized = cross_polarized
    cfg.antenna.d_v_sweep = (0.5, 0.8)
    cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)
    site_xy = hex_layout(2, cfg.layout.isd_m)
    ctx = SimpleNamespace(
        cfg=cfg, sweep=[(d_v, t) for d_v in cfg.d_v_sweep() for t in cfg.downtilt_sweep()],
        wavelength=SPEED_OF_LIGHT / cfg.run.carrier_hz,
        cell_site=np.repeat(np.arange(19), 3),
        cell_bearing_rad=np.radians(np.tile(CELL_BEARINGS_DEG, 19)),
    )
    rng = np.random.default_rng(11)
    radius = 1.5 * cfg.layout.isd_m * np.sqrt(rng.random(200))
    angle = rng.uniform(-math.pi, math.pi, 200)
    delta = np.stack([radius * np.cos(angle), radius * np.sin(angle)], -1)[:, None] - site_xy
    dz = rng.uniform(1.5, 50.0, (200, 1)) - cfg.layout.bs_height_m
    zen = np.arccos(dz / np.hypot(np.hypot(delta[..., 0], delta[..., 1]), dz))
    az = np.arctan2(delta[..., 1], delta[..., 0])
    # The campaign passes the azimuths from the bearings unwrapped; the
    # per-cell form wrapped them first.
    local_az = az[:, ctx.cell_site] - ctx.cell_bearing_rad
    wrapped, cell_zen = wrap_azimuth(local_az), zen[:, ctx.cell_site]
    assert zen.min() < math.pi / 2 < zen.max() and np.abs(local_az).max() > math.pi
    setups = campaign._tx_setups(ctx)
    assert [s.points for s in setups] == [[0, 1, 2], [3, 4, 5]]
    for setup in setups:
        got = campaign._tx_gains_db(ctx, setup, local_az, zen)
        want = tx_gains_db_per_cell(setup.pattern, setup.arrays, ctx.wavelength, wrapped, cell_zen)
        assert len(got) == len(want) == 3
        per_element = tx_gains_db_per_element(
            setup.pattern, setup.arrays, ctx.wavelength, wrapped, cell_zen)
        for g, w, e in zip(got, want, per_element):
            assert g.shape == (200, 57) and np.array_equal(g, w)
            assert_allclose(g, e, rtol=0, atol=1e-10)
        # K = M tilts move the gain; at K = 1 port 0 is one element.
        assert np.array_equal(got[0], got[2]) == (k_per_port == 1)
    cfg.antenna.pattern = "itu_port"  # the tilted port pattern, one setup per point
    for setup in campaign._tx_setups(ctx):
        # Its array is one element at the origin; phase 1 reads the pattern's own gain.
        [array] = setup.arrays
        assert not array.lattice.any() and array.weights.tolist() == [[1.0]]
        got = campaign._tx_gains_db(ctx, setup, local_az, zen)
        assert np.array_equal(
            got, tx_gains_db_per_cell(setup.pattern, None, ctx.wavelength, wrapped, cell_zen)
        )


def test_port_across_columns_is_refused():
    # A port's elements share one column: one whose elements sit in two
    # columns is refused. A port one column over (port 1 of a two-column
    # array) gets its column's power of the horizontal step: its factor
    # equals the per-element form toward every direction.
    half = math.sqrt(0.5)
    lattice, steps = [[0, 0], [1, 0]], [[0.0, 0.075, 0.0], [0.0, 0.0, 0.12]]
    with pytest.raises(ValueError, match="share one slant and one column"):
        ArrayGeometry(lattice, steps, np.zeros(2), [[half, half]])
    geom = uniform_planar_array(4, 2, 0.8, 0.5, 0.15)
    rng = np.random.default_rng(5)
    k = _k(0.15, rng.uniform(-math.pi, math.pi, 100), rng.uniform(0.0, math.pi, 100))
    want = response_phases(element_positions(geom), k) @ geom.weights.T
    assert_allclose(port_factors(geom.lattice, geom.weights, k, geom.steps.T), want, atol=1e-13)
