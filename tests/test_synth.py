import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.antenna import (
    LinkEnd,
    downtilt_weights,
    port_factors,
    uniform_planar_array,
)
from chan3d.geom import SPEED_OF_LIGHT, rotation_z, unit_vectors, wrap_azimuth
from chan3d.ssp import ClusterSet, SspConfig, generate_cluster_set, polarization_matrix
from chan3d.synth import end_fields, synthesize, ue_links

from antenna_oracle import element_pattern_3gpp, isotropic_end, lattice_end, per_port_fields
from synth_oracle import (
    LinkContext, end_fields_one_link, link_half_one_link, synthesize_link, synthesize_one_link,
    ue_record,
)


def _single_ray_clusters(phase_vv=0.7, xpr=1e-12):
    return ClusterSet(
        delays_s=np.array([0.0]),
        cluster_powers=np.array([1.0]),
        ray_powers=np.array([[1.0]]),
        aod=np.array([[0.3]]),
        zod=np.array([[1.4]]),
        aoa=np.array([[2.1]]),
        zoa=np.array([[1.6]]),
        phases=np.array([[[phase_vv, 0.1, 0.2, 0.3]]]),
        xpr=np.array([[xpr]]),
        los_phase_vv=0.5,
        los_phase_hh=1.5,
    )


def _random_clusters(rng, n_clusters=2, n_rays=3):
    delays = np.sort(rng.uniform(0.0, 1e-6, n_clusters))
    delays -= delays[0]
    powers = rng.dirichlet(np.ones(n_clusters))
    ray_powers = np.repeat(powers[:, None] / n_rays, n_rays, axis=1)
    return ClusterSet(
        delays_s=delays,
        cluster_powers=powers,
        ray_powers=ray_powers,
        aod=rng.uniform(-math.pi, math.pi, (n_clusters, n_rays)),
        zod=rng.uniform(0.2, math.pi - 0.2, (n_clusters, n_rays)),
        aoa=rng.uniform(-math.pi, math.pi, (n_clusters, n_rays)),
        zoa=rng.uniform(0.2, math.pi - 0.2, (n_clusters, n_rays)),
        phases=rng.uniform(0.0, 2.0 * math.pi, (n_clusters, n_rays, 4)),
        xpr=10.0 ** (rng.normal(-0.8, 0.3, (n_clusters, n_rays))),
        los_phase_vv=float(rng.uniform(0, 2 * math.pi)),
        los_phase_hh=float(rng.uniform(0, 2 * math.pi)),
    )


def _ctx(clusters, tx=None, rx=None, slow_db=0.0, k_rice=0.0, velocity=(0.0, 0.0, 0.0)):
    return LinkContext(
        tx=tx or isotropic_end(),
        rx=rx or isotropic_end(),
        clusters=clusters,
        slow_fading_db=slow_db,
        carrier_hz=2e9,
        velocity_mps=np.array(velocity),
        rice_k_linear=k_rice,
        los_departure=(0.2, 1.5),
        los_arrival=(0.2 - math.pi, math.pi - 1.5),
    )


def _bruteforce_cluster(ctx, n, t):
    """Diffuse (n_tx ports, n_rx) matrix of cluster n at time t, re-summed
    term by term over the elements with explicit scalar loops, then weighted
    to the TX ports; for isotropic slant-model ends with one port per RX
    element, and K = 0."""
    clusters, tx, rx = ctx.clusters, ctx.tx, ctx.rx
    tx_positions, rx_positions = tx.lattice @ tx.steps, rx.lattice @ rx.steps
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    h = np.zeros((tx.n_elements, rx.n_elements), dtype=complex)
    for m in range(clusters.n_rays):
        aod, zod = clusters.aod[n, m], clusters.zod[n, m]
        aoa, zoa = clusters.aoa[n, m], clusters.zoa[n, m]
        kd = k0 * np.array([math.sin(zod) * math.cos(aod), math.sin(zod) * math.sin(aod), math.cos(zod)])
        ka = k0 * np.array([math.sin(zoa) * math.cos(aoa), math.sin(zoa) * math.sin(aoa), math.cos(zoa)])
        pvv, pvh, phv, phh = clusters.phases[n, m]
        root_k = math.sqrt(clusters.xpr[n, m])
        alpha = np.array(
            [
                [np.exp(1j * pvv), root_k * np.exp(1j * pvh)],
                [root_k * np.exp(1j * phv), np.exp(1j * phh)],
            ]
        )
        for s in range(tx.n_elements):
            g_t = np.array([math.cos(tx.slant_rad[s]), math.sin(tx.slant_rad[s])])
            a_t = np.exp(1j * float(kd @ tx_positions[s]))
            for u in range(rx.n_elements):
                g_r = np.array([math.cos(rx.slant_rad[u]), math.sin(rx.slant_rad[u])])
                a_r = np.exp(1j * float(ka @ rx_positions[u]))
                doppler = np.exp(1j * float(ka @ ctx.velocity_mps) * t)
                h[s, u] += (
                    math.sqrt(clusters.ray_powers[n, m])
                    * (g_r @ alpha @ g_t)
                    * a_t
                    * a_r
                    * doppler
                )
    return (tx.weights.reshape(-1, tx.n_elements) @ h) * 10.0 ** (-ctx.slow_fading_db / 20.0)


def test_single_ray_isotropic_collapses_to_phase():
    phase = 0.7
    ctx = _ctx(_single_ray_clusters(phase))
    h = synthesize_link(ctx, [0.0])[0, 0]
    assert h.shape == (1, 1)
    assert_allclose(h[0, 0], np.exp(1j * phase), atol=1e-12)


def test_static_ue_time_invariant():
    rng = np.random.default_rng(1)
    taps = synthesize_link(_ctx(_random_clusters(rng)), [0.0, 3.7])
    assert_allclose(taps[0], taps[1], atol=1e-15)


def test_cluster_matrix_matches_bruteforce_oracle():
    # Independent term-by-term re-summation with explicit scalar loops, over
    # lattice ends with random steps: the TX's three elements, one column,
    # feed two ports at each of two stacked points, some ports two elements
    # with random weights.
    rng = np.random.default_rng(2)
    clusters = _random_clusters(rng, n_clusters=2, n_rays=3)
    weights = np.array([[[0.6, 0.8j, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 0.8, 0.6j]]])
    weights = weights * np.exp(1j * rng.uniform(0, 6, (2, 2, 1)))
    tx = LinkEnd(np.zeros(3), lattice=[[0, 0], [0, 1], [0, 2]],
                 steps=rng.uniform(-0.1, 0.1, (2, 3)), weights=weights)
    rx = LinkEnd(np.radians([90.0, 30.0]), lattice=[[0, 0], [1, 0]],
                 steps=rng.uniform(-0.1, 0.1, (2, 3)))
    velocity = np.array([0.5, -0.3, 0.0])
    ctx = _ctx(clusters, tx=tx, rx=rx, slow_db=7.0, velocity=velocity)
    t = 0.37
    assert_allclose(synthesize_link(ctx, [t])[0, 1], _bruteforce_cluster(ctx, 1, t), atol=1e-10)


def _without_los_angles(ctx):
    return dataclasses.replace(ctx, los_departure=None, los_arrival=None)


def test_rice_zero_equals_nlos():
    # K = 0 never touches the LOS ray: the taps equal those of a link that
    # carries no LOS angles at all.
    rng = np.random.default_rng(3)
    ctx = _ctx(_random_clusters(rng))
    assert_allclose(
        synthesize_link(ctx, [0.5]), synthesize_link(_without_los_angles(ctx), [0.5]), atol=1e-15
    )


def test_los_gate_only_first_cluster():
    rng = np.random.default_rng(4)
    clusters = _random_clusters(rng)
    k = 5.0
    with_los = synthesize_link(_ctx(clusters, k_rice=k), [0.0])
    nlos = synthesize_link(_ctx(clusters), [0.0])
    assert_allclose(with_los[:, 1:], math.sqrt(1.0 / (k + 1.0)) * nlos[:, 1:], atol=1e-14)
    assert not np.allclose(with_los[:, 0], math.sqrt(1.0 / (k + 1.0)) * nlos[:, 0], atol=1e-3)


def test_large_rice_factor_limit():
    slow_db = 9.0
    ctx = _ctx(_single_ray_clusters(), slow_db=slow_db, k_rice=1e9)
    h = synthesize_link(ctx, [0.0])[0, 0]
    assert_allclose(abs(h[0, 0]), 10.0 ** (-slow_db / 20.0), rtol=1e-4)


def test_negative_rice_factor_rejected():
    # The checks run once per UE batch: one negative K among its links fails it.
    links, batch, _ = _ue_links("slant", False, n_links=3)
    links[2].rice_k_linear = -0.5
    with pytest.raises(ValueError, match="Rice factor must be non-negative"):
        ue_record(links, batch)


@pytest.mark.parametrize("change, message", [
    (dict(carrier_hz=0.0), "carrier frequency must be positive"),
    (dict(polarization_model="circular"), "polarization model must be"),
    (dict(los_departure=None), "LOS angles required"),
])
def test_ue_batch_checks(change, message):
    # Carrier and polarization model are the UE's, read from link 0. The LOS
    # angles are required only of the links whose K is positive: of link 1,
    # not of link 0.
    links, batch, _ = _ue_links("slant", False, n_links=3)
    links[0] = dataclasses.replace(links[0], los_departure=None)
    ue_record(links, batch)
    i = 1 if "los_departure" in change else 0
    links[i] = dataclasses.replace(links[i], **change)
    with pytest.raises(ValueError, match=message):
        ue_record(links, batch)


def test_link_end_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinkEnd(np.zeros(2), lattice=np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError):
        LinkEnd(np.zeros(2), weights=np.ones((1, 3)))


def test_link_end_refuses_a_port_across_lattice_columns():
    # port_factors takes a port's column as its elements' smallest: a port
    # over lattice points (0, 0) and (1, 1), built as antenna_oracle's
    # lattice_end builds a turned end, would read a wrong factor without an
    # error. The end refuses it, and so it does at any one of stacked points.
    half, bearing, pattern = math.sqrt(0.5), math.radians(150.0), element_pattern_3gpp()
    steps = np.array([[0.0, 0.075, 0.0], [0.0, 0.0, 0.12]]) @ rotation_z(bearing).T
    with pytest.raises(ValueError, match="share one slant and one column"):
        LinkEnd(np.zeros(2), pattern, bearing, [[0, 0], [1, 1]], steps, [[half, half]])
    lattice = [[0, 0], [0, 1], [1, 1]]
    column = [[half, half, 0.0], [0.0, 0.0, 1.0]]  # elements 0 and 1 share column 0
    across = [[half, 0.0, half], [0.0, 1.0, 0.0]]  # elements 0 and 2: columns 0 and 1
    LinkEnd(np.zeros(3), pattern, bearing, lattice, steps, [column, column])
    with pytest.raises(ValueError, match="share one slant and one column"):
        LinkEnd(np.zeros(3), pattern, bearing, lattice, steps, [column, across])


def test_synthesize_orders_taps_and_matches_cluster_ops():
    rng = np.random.default_rng(5)
    clusters = _random_clusters(rng, n_clusters=4, n_rays=3)
    ctx = _ctx(clusters, velocity=(0.8, 0.0, 0.0))
    times = [0.0, 1e-3]
    taps = synthesize_link(ctx, times)
    assert np.all(np.diff(clusters.delays_s) >= 0.0)
    assert taps.shape == (2, 4, 1, 1)
    for ti, t in enumerate(times):
        for n in range(4):
            assert_allclose(taps[ti, n], _bruteforce_cluster(ctx, n, t), atol=1e-12)


def test_synthesize_rejects_empty_times():
    ctx = _ctx(_single_ray_clusters())
    with pytest.raises(ValueError):
        synthesize_link(ctx, [])


@pytest.mark.parametrize("slow_db", [math.nan, -math.inf])
def test_synthesize_rejects_non_finite_taps(slow_db):
    # A NaN or infinite power scale reaches every tap; synthesize refuses it.
    ctx = _ctx(_random_clusters(np.random.default_rng(10)), slow_db=slow_db)
    with pytest.raises(ValueError, match="tap matrices must be finite"):
        synthesize_link(ctx, [0.0])


def test_port_output_equals_manual_weight_sum():
    # The port taps of a column equal its element taps (each element its own
    # port) summed with the column's weights.
    rng = np.random.default_rng(6)
    clusters = _random_clusters(rng, n_clusters=2, n_rays=3)
    geom = uniform_planar_array(4, 1, 0.5, 0.5, SPEED_OF_LIGHT / 2e9)
    pattern = element_pattern_3gpp()
    elements = synthesize_link(_ctx(clusters, tx=lattice_end(geom, pattern, ports=False)), [0.0])
    ports = synthesize_link(_ctx(clusters, tx=lattice_end(geom, pattern)), [0.0])
    assert elements.shape == (1, 2, 4, 1) and ports.shape == (1, 2, 1, 1)
    w = np.full(4, 0.5)
    manual = np.einsum("k,nku->nu", w, elements[0])
    assert_allclose(ports[0][:, 0, :], manual, atol=1e-12)


def test_total_mean_tap_power_is_one():
    # Monte Carlo over polarization draws only; geometry and powers fixed.
    # The draws are one batch of NLOS links: one record, synthesized at once.
    rng = np.random.default_rng(7)
    base = _random_clusters(rng, n_clusters=3, n_rays=3)
    n_draws = 10_000
    fixed = ("delays_s", "cluster_powers", "ray_powers", "aod", "zod", "aoa", "zoa")
    batch = ClusterSet(
        **{name: np.broadcast_to(getattr(base, name), (n_draws,) + getattr(base, name).shape)
           for name in fixed},
        phases=rng.uniform(0.0, 2.0 * math.pi, (n_draws,) + base.phases.shape),
        xpr=np.full((n_draws,) + base.xpr.shape, 1e-12),
        los_phase_vv=np.zeros(n_draws), los_phase_hh=np.zeros(n_draws),
    )
    end, nlos = isotropic_end(), [0.0] * n_draws
    ue = ue_links(end, batch, np.full((n_draws, 4), math.nan), nlos, nlos, 2e9, np.zeros(3))
    g_t = end_fields(end, batch.aod, batch.zod, "slant")
    g_los = end_fields(end, ue.los[:, 0], ue.los[:, 1], "slant")
    taps = synthesize(ue.toward(end), [0.0], g_t, g_los)
    total = float(np.sum(np.abs(taps) ** 2))
    assert abs(total / n_draws - 1.0) < 0.02


def test_amplitude_scaling_linearity():
    # Scaling every sqrt(P) by c scales each matrix entry by c; bypass the
    # sum-to-one constructor check by assigning the field after validation.
    rng = np.random.default_rng(8)
    base = _random_clusters(rng, n_clusters=2, n_rays=3)
    h_base = synthesize_link(_ctx(base), [0.0])[0, 0]
    scaled = _random_clusters(np.random.default_rng(8), n_clusters=2, n_rays=3)
    scaled.ray_powers = base.ray_powers * 4.0
    h_scaled = synthesize_link(_ctx(scaled), [0.0])[0, 0]
    assert_allclose(h_scaled, 2.0 * h_base, rtol=1e-12)


def test_doppler_trajectory_single_ray():
    clusters = _single_ray_clusters()
    velocity = np.array([0.8, 0.2, 0.0])
    ctx = _ctx(clusters, velocity=velocity)
    k0 = 2.0 * math.pi * 2e9 / SPEED_OF_LIGHT
    zoa, aoa = clusters.zoa[0, 0], clusters.aoa[0, 0]
    k_arr = k0 * np.array([
        math.sin(zoa) * math.cos(aoa), math.sin(zoa) * math.sin(aoa), math.cos(zoa),
    ])
    omega = float(k_arr @ velocity)
    times = (0.0, 1e-3, 5e-3, 0.02)
    h = synthesize_link(ctx, times)[:, 0, 0, 0]
    for ti, t in enumerate(times):
        assert_allclose(h[ti] / h[0], np.exp(1j * omega * t), atol=1e-12)


def _factors(end, k_vectors):
    """Each port's factor of end toward the wave vectors: (..., n_ports)."""
    return port_factors(end.lattice, end.weights, k_vectors, end.steps.T)


def _per_cluster_ray_terms(ctx, cluster):
    """Static per-ray tap contributions and Doppler rates of one cluster: the
    per-cluster, per-port form that synthesize batches over every
    (cluster, ray) and evaluates per slant."""
    cs = ctx.clusters
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    aod, zod = cs.aod[cluster], cs.zod[cluster]
    aoa, zoa = cs.aoa[cluster], cs.zoa[cluster]
    g_t = per_port_fields(ctx.tx, aod, zod, ctx.polarization_model)  # (M, 2, P)
    g_r = per_port_fields(ctx.rx, aoa, zoa, ctx.polarization_model)  # (M, 2, U)
    g_r = g_r * _factors(ctx.rx, k0 * unit_vectors(aoa, zoa))[:, None, :]
    alpha = polarization_matrix(cs.xpr[cluster], cs.phases[cluster], ctx.xpr_offdiag_inverse)
    bilinear = np.einsum("mpu,mpq,mqs->msu", g_r, alpha, g_t)
    a_t = _factors(ctx.tx, k0 * unit_vectors(aod, zod))  # (M, P)
    terms = np.sqrt(cs.ray_powers[cluster])[:, None, None] * bilinear * a_t[:, :, None]
    omega = (k0 * unit_vectors(aoa, zoa)) @ ctx.velocity_mps
    return terms, omega


def _per_port_los_term(ctx):
    """The LOS ray's static tap contribution and Doppler rate, per port."""
    k0 = 2.0 * math.pi * ctx.carrier_hz / SPEED_OF_LIGHT
    dep, arr = ctx.los_departure, ctx.los_arrival
    k_arr = k0 * unit_vectors(*arr)
    g_t = per_port_fields(ctx.tx, *dep, ctx.polarization_model)[0]
    g_r = per_port_fields(ctx.rx, *arr, ctx.polarization_model)[0] * _factors(ctx.rx, k_arr)
    alpha = np.diag(
        [np.exp(1j * ctx.clusters.los_phase_vv), np.exp(1j * ctx.clusters.los_phase_hh)]
    )
    bilinear = np.einsum("pu,pq,qs->su", g_r, alpha, g_t)
    a_t = _factors(ctx.tx, k0 * unit_vectors(*dep))
    return bilinear * a_t[:, None], float(k_arr @ ctx.velocity_mps)


def _per_cluster_taps(ctx, times):
    """Port taps summed cluster by cluster and time by time, as a loop over
    _per_cluster_ray_terms, with the LOS ray of _per_port_los_term."""
    cs = ctx.clusters
    times = np.asarray(times, dtype=float)
    scale = np.power(10.0, -ctx.slow_fading_db / 20.0)
    diffuse_scale = scale * math.sqrt(1.0 / (ctx.rice_k_linear + 1.0))
    per_cluster = [_per_cluster_ray_terms(ctx, n) for n in range(len(cs.delays_s))]
    n_tx, n_rx = len(ctx.tx.weights), len(ctx.rx.weights)
    taps = np.zeros((times.size, len(per_cluster), n_tx, n_rx), dtype=complex)
    for ti, t in enumerate(times):
        for n, (terms, omega) in enumerate(per_cluster):
            taps[ti, n] = diffuse_scale * np.einsum("msu,m->su", terms, np.exp(1j * omega * t))
    if ctx.rice_k_linear > 0:
        los_term, los_omega = _per_port_los_term(ctx)
        los_scale = scale * math.sqrt(ctx.rice_k_linear / (ctx.rice_k_linear + 1.0))
        for ti, t in enumerate(times):
            taps[ti, 0] += los_scale * los_term * np.exp(1j * los_omega * t)
    return taps


def _two_element_rx(pattern=None, bearing=0.0):
    """A receiver of two elements 0.07 m apart along y, slants 0 and 90 deg."""
    return LinkEnd(np.array([0.0, math.pi / 2]), pattern, bearing, lattice=[[0, 0], [1, 0]],
                   steps=[[0.0, 0.07, 0.0], [0.0, 0.0, 0.0]])


def _campaign_like_link(model, los, split, ports=True):
    """A cross-polarized, tilted, rotated 4-row column, at its ports or
    (ports=False) each element its own port, toward a two-element receiver,
    with clusters drawn as a campaign draws them."""
    wavelength = SPEED_OF_LIGHT / 2e9
    geom = uniform_planar_array(
        4, 1, 0.5, 0.5, wavelength, cross_polarized=True,
        column_weights=downtilt_weights(4, 0.5, math.radians(102.0)),
    )
    tx = lattice_end(geom, element_pattern_3gpp(), math.radians(150.0), ports)
    rx = _two_element_rx()
    dep = (2.3, 1.62)
    arr = (2.3 - math.pi, math.pi - 1.62)
    lsps = [0.0, 9.0, 3.6e-7, 11.0, 45.0, 2.5, 9.0]  # in LSP_NAMES order
    clusters = generate_cluster_set(
        [lsps], [dep], [arr], SspConfig(split_strongest=split), [np.random.default_rng(41)]
    ).link(0)
    return LinkContext(
        tx=tx,
        rx=rx,
        clusters=clusters,
        slow_fading_db=117.0,
        carrier_hz=2e9,
        velocity_mps=np.array([0.6, -0.55, 0.0]),
        rice_k_linear=10.0 ** 0.9 if los else 0.0,
        los_departure=dep,
        los_arrival=arr,
        polarization_model=model,
    )


@pytest.mark.parametrize(
    "model, los, n_times, output, split",
    list(itertools.product(
        ("slant", "rotated"), (False, True), (1, 3), ("elements", "ports"), (False, True)
    )),
)
def test_batched_rays_equal_per_cluster_loop(model, los, n_times, output, split):
    # One array pass over every (cluster, ray) must round exactly like the
    # per-cluster loop, so that campaign output bytes do not move: at the
    # column's two ports, and with each of its eight elements its own port.
    ctx = _campaign_like_link(model, los, split, ports=output == "ports")
    times = np.arange(n_times) * 1e-3
    taps = synthesize_link(ctx, times)
    assert taps.shape[2] == (2 if output == "ports" else 8)
    assert np.array_equal(taps, _per_cluster_taps(ctx, times))


@pytest.mark.parametrize("model", ("slant", "rotated"))
@pytest.mark.parametrize("layout", ("interleaved", "out_of_order"))
def test_per_slant_fields_equal_per_element_oracle(model, layout):
    # Fields are evaluated once per slant and gathered to the ports, here one
    # per element. The taps, LOS ray included, must equal the per-port oracle
    # bit for bit: for the interleaved +/-45 deg pairs of a cross-polarized
    # array, and for ends whose slants are out of order and repeat at random
    # places.
    ctx = _campaign_like_link(model, los=True, split=False, ports=False)
    if layout == "interleaved":
        assert np.array_equal(ctx.tx.slant_rad, np.radians([-45.0, 45.0] * 4))
    else:
        tx, rx = ctx.tx, ctx.rx
        slants = np.radians([90.0, -45.0, 45.0, 0.0, -45.0, 90.0, 30.0, 45.0])
        ctx.tx = LinkEnd(slants, tx.pattern, tx.bearing_rad, tx.lattice, tx.steps)
        ctx.rx = LinkEnd(rx.slant_rad[::-1], lattice=rx.lattice[::-1], steps=rx.steps)
        assert not np.all(np.diff(ctx.rx.slant_rad) > 0)
    assert ctx.tx.slants.size < len(ctx.tx.weights) == ctx.tx.n_elements
    times = [0.0, 2e-3]
    assert np.array_equal(synthesize_link(ctx, times), _per_cluster_taps(ctx, times))


def _ue_links(model, split, n_links=6):
    """One UE's links to n_links cells (three bearings) at the two ports of a
    cross-polarized column, with clusters drawn as a campaign draws them: every other link
    is LOS (K > 0), and the two-element RX end has a pattern and a bearing. Returns the
    links, their cluster batch and the TX end toward all of them, as a campaign's setup."""
    wavelength = SPEED_OF_LIGHT / 2e9
    geom = uniform_planar_array(
        4, 1, 0.5, 0.5, wavelength, cross_polarized=True,
        column_weights=downtilt_weights(4, 0.5, math.radians(102.0)),
    )
    rx = _two_element_rx(element_pattern_3gpp(), 0.4)
    rng = np.random.default_rng(43)
    deps = np.column_stack([rng.uniform(-math.pi, math.pi, n_links), rng.uniform(1.4, 1.7, n_links)])
    arrs = np.column_stack([wrap_azimuth(deps[:, 0] + math.pi), math.pi - deps[:, 1]])
    lsps = [[0.0, 9.0, 3.6e-7, 11.0 + i, 45.0, 2.5, 9.0] for i in range(n_links)]
    batch = generate_cluster_set(
        lsps, deps, arrs, SspConfig(split_strongest=split),
        [np.random.default_rng([41, i]) for i in range(n_links)],
    )
    bearings = np.radians(30.0 + 120.0 * (np.arange(n_links) % 3))
    links = []
    for i in range(n_links):
        tx = lattice_end(geom, element_pattern_3gpp(), float(bearings[i]))
        links.append(LinkContext(
            tx=tx, rx=rx, clusters=batch.link(i), slow_fading_db=110.0 + i, carrier_hz=2e9,
            velocity_mps=np.array([0.6, -0.55, 0.0]),
            rice_k_linear=10.0 ** (0.5 + 0.1 * i) if i % 2 else 0.0,
            los_departure=tuple(deps[i].tolist()), los_arrival=tuple(arrs[i].tolist()),
            polarization_model=model,
        ))
    return links, batch, lattice_end(geom, element_pattern_3gpp(), bearings)


RAY_FIELDS = ("g_r", "alpha", "k_dep", "omega")


@pytest.mark.parametrize("model", ("slant", "rotated"))
@pytest.mark.parametrize("split", (False, True), ids=("clusters", "split_strongest"))
def test_ue_half_and_setup_fields_equal_per_link_oracle(model, split):
    # One array pass over a UE's LOS and NLOS links gives each link the
    # bytes of its per-link ray terms and its own LOS pair, Rice K and slow
    # fading; a TX setup's fields, from its one end at each link's cell
    # bearing, equal each link's own evaluation.
    links, batch, tx = _ue_links(model, split)
    ue = ue_record(links, batch)
    rays = end_fields(tx, batch.aod, batch.zod, model)
    dep = np.array([link.los_departure for link in links])
    los = end_fields(tx, dep[:, 0], dep[:, 1], model)
    assert {link.rice_k_linear > 0 for link in links} == {False, True}
    assert ue.rice_k.tolist() == [link.rice_k_linear for link in links]
    assert ue.slow_fading_db.tolist() == [link.slow_fading_db for link in links]
    for i, link in enumerate(links):
        assert tuple(ue.los[i].tolist()) == (*link.los_departure, *link.los_arrival)
        expected, expected_los = link_half_one_link(link)
        for name in RAY_FIELDS:
            assert np.array_equal(getattr(ue.rays, name)[i], getattr(expected, name)), (i, name)
        assert (expected_los is None) == (link.rice_k_linear == 0)
        for name in RAY_FIELDS if expected_los else ():
            got = getattr(ue.los_rays, name)[i]
            assert np.array_equal(got, getattr(expected_los, name)), (i, name)
        cs = link.clusters
        assert np.array_equal(rays[i], end_fields_one_link(link.tx, cs.aod, cs.zod, model))
        assert np.array_equal(los[i], end_fields_one_link(link.tx, *link.los_departure, model)[0])


@pytest.mark.parametrize("model", ("slant", "rotated"))
@pytest.mark.parametrize(
    "split, n_links",
    [(False, 6), (True, 6), (False, 57), (True, 57), (False, 1), (True, 1)],
    ids=("clusters", "split_strongest", "two_rings", "two_rings_split", "lone_links",
         "lone_links_split"),
)
def test_ue_batch_taps_equal_per_cluster_loop(model, split, n_links):
    # The campaign's path: one call synthesizes all of a UE's links (three
    # cell bearings, mixing LOS and NLOS links) from its record and the
    # setup's TX fields toward its rays and its LOS departures, through the
    # setup's one end. Each link's taps equal the per-link synthesis bit for
    # bit, for a 57-link UE too and for a UE of one link, and the
    # per-cluster, per-element loop on the smaller UEs.
    links, batch, tx = _ue_links(model, split, n_links)
    ue = ue_record(links, batch)
    g_t = end_fields(tx, batch.aod, batch.zod, model)
    g_los = end_fields(tx, ue.los[:, 0], ue.los[:, 1], model)
    times = [0.0, 2e-3, 5e-3]
    taps = synthesize(ue.toward(tx), times, g_t, g_los)
    assert taps.shape[0] == n_links
    for i, link in enumerate(links):
        per_link = synthesize_one_link(ue, i, link.tx, times, g_t[i], g_los[i])
        assert np.array_equal(taps[i], per_link), i
        if n_links < 57:
            assert np.array_equal(taps[i], _per_cluster_taps(link, times)), i
