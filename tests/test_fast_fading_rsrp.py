import math

import numpy as np
from numpy.testing import assert_allclose

from chan3d.antenna import downtilt_weights, uniform_planar_array
from chan3d.calib import rsrp_db, rsrp_fast_fading_db, top_eigenvalues
from chan3d.geom import SPEED_OF_LIGHT
from chan3d.ssp import ClusterSet

from antenna_oracle import composite_port_gain_db, element_pattern_3gpp, isotropic_end, lattice_end
from synth_oracle import LinkContext, synthesize_link


def _los_only_context(pl_sf_db, dep, arr, geometry, pattern, k_rice=1e9):
    """A one-ray link whose ray and LOS both leave along dep and arrive
    along arr, (azimuth, zenith) pairs; K -> inf by default."""
    clusters = ClusterSet(
        delays_s=np.array([0.0]),
        cluster_powers=np.array([1.0]),
        ray_powers=np.array([[1.0]]),
        aod=np.array([[dep[0]]]),
        zod=np.array([[dep[1]]]),
        aoa=np.array([[arr[0]]]),
        zoa=np.array([[arr[1]]]),
        phases=np.array([[[0.3, 0.6, 0.9, 1.2]]]),
        xpr=np.array([[0.1]]),
        los_phase_vv=0.7,
        los_phase_hh=2.1,
    )
    return LinkContext(
        tx=lattice_end(geometry, pattern),
        rx=isotropic_end(),
        clusters=clusters,
        slow_fading_db=pl_sf_db,
        carrier_hz=2e9,
        rice_k_linear=k_rice,
        los_departure=dep,
        los_arrival=arr,
    )


def test_fast_fading_rsrp_collapses_to_slow_fading_plus_gain():
    # With K -> inf only the deterministic ray survives, so the fast-fading
    # RSRP must reproduce the slow-fading RSRP plus the composite port gain
    # evaluated at the LOS departure direction.
    wavelength = SPEED_OF_LIGHT / 2e9
    m, d_v, tilt_deg = 10, 0.5, 12.0
    geometry = uniform_planar_array(
        m, 1, d_v, 0.5, wavelength,
        column_weights=downtilt_weights(m, d_v, math.radians(90.0 + tilt_deg)),
    )
    pattern = element_pattern_3gpp()
    dep = (math.radians(10.0), math.radians(96.0))
    arr = (math.radians(10.0) - math.pi, math.pi - dep[1])
    pl_sf, p_tx = 101.3, 46.0

    ctx = _los_only_context(pl_sf, dep, arr, geometry, pattern)
    taps = synthesize_link(ctx, [0.0])  # at the port
    ff = rsrp_fast_fading_db(p_tx, taps)

    g_t = float(composite_port_gain_db(pattern, geometry, 0, wavelength, *dep))
    slow = float(rsrp_db(p_tx, g_t, 0.0, pl_sf, 0.0))
    assert abs(ff - slow) < 0.1


def test_fast_fading_rsrp_tracks_taps_not_inputs():
    # Doubling every tap amplitude moves the metric by exactly +6.02 dB.
    wavelength = SPEED_OF_LIGHT / 2e9
    geometry = uniform_planar_array(4, 1, 0.5, 0.5, wavelength)
    ctx = _los_only_context(90.0, (0.0, 1.6), (-math.pi, math.pi - 1.6),
                            geometry, element_pattern_3gpp())
    taps = synthesize_link(ctx, [0.0])
    base = rsrp_fast_fading_db(0.0, taps)
    assert_allclose(rsrp_fast_fading_db(0.0, 2.0 * taps) - base, 20.0 * math.log10(2.0), rtol=1e-12)


def test_eigenvalue_sum_bounded_by_trace():
    rng = np.random.default_rng(33)
    for _ in range(20):
        taps = rng.normal(size=(2, 4, 3, 2)) + 1j * rng.normal(size=(2, 4, 3, 2))
        l1, l2 = top_eigenvalues(taps)
        trace = float(np.sum(np.abs(taps) ** 2)) / taps.shape[0]
        assert l1 >= l2 >= 0.0
        assert l1 + l2 <= trace + 1e-9
