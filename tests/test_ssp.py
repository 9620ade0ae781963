import copy
import logging
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chan3d.campaign as campaign
import ssp_oracle as oracle
from chan3d.calib import angular_spread_deg
from chan3d.config import ConfigError, default_config, validate
from chan3d.ssp import (
    RAY_OFFSETS_20,
    ClusterSet,
    SspConfig,
    _rescale_to_spread,
    circular_mean,
    cluster_angles,
    cluster_delays,
    cluster_powers,
    expand_subpaths,
    generate_cluster_set,
    polarization_matrix,
    reflect_zenith,
    split_strongest_clusters,
)

D2R = math.pi / 180.0
FIELDS = (
    "delays_s", "cluster_powers", "ray_powers", "aod", "zod", "aoa", "zoa", "phases", "xpr",
    "los_phase_vv", "los_phase_hh",
)


def _lsps(ds=2e-7, asd=20.0, asa=40.0, esd=5.0, esa=8.0, k=9.0):
    """One link's LSPs in LSP_NAMES order (SF 0 dB)."""
    return np.array([0.0, k, ds, asd, asa, esd, esa])


def _batch(n_links, seed, cfg=None):
    """n_links links with the same LSPs and LOS angles, each on its own generator."""
    return generate_cluster_set(
        [_lsps()] * n_links,
        np.tile([0.1, 1.5], (n_links, 1)),
        np.tile([2.0, 1.6], (n_links, 1)),
        cfg or SspConfig(),
        [np.random.default_rng([seed, i]) for i in range(n_links)],
    )


# ------------------------------------------------------------------- delays

def test_single_cluster_delay_is_zero():
    delays = cluster_delays(np.random.default_rng(0).random((1, 1)), [1e-7], 3.0)
    assert_allclose(delays, [[0.0]])


def test_delays_sorted_and_zero_based():
    rng = np.random.default_rng(1)
    delays = cluster_delays(rng.random((100, 20)), np.full(100, 3e-7), 2.5)
    assert np.all(delays[:, 0] == 0.0)
    assert np.all(np.diff(delays, axis=-1) >= 0.0)


def test_delay_profile_rms_matches_closed_form():
    # Closed-form oracle: exponential delays with scale r*DS and power
    # weighting exp(-tau (r-1)/(r DS)) induce an exponential profile with
    # scale DS, whose RMS spread is exactly DS. One large draw estimates it.
    ds, r = 2e-7, 3.0
    rng = np.random.default_rng(42)
    delays = cluster_delays(rng.random((1, 100_000)), [ds], r)
    powers = cluster_powers(delays, np.zeros_like(delays), [ds], r)
    mean = float((powers * delays).sum())
    rms = math.sqrt(float((powers * delays**2).sum()) - mean**2)
    assert abs(rms - ds) / ds < 0.05


def test_nonpositive_delay_spread_rejected():
    with pytest.raises(ValueError, match="delay spread must be positive"):
        cluster_delays(np.full((2, 3), 0.5), [1e-7, 0.0], 2.5)


# ------------------------------------------------------------------- powers

def test_single_cluster_power():
    shadow = np.random.default_rng(3).normal(0.0, 3.0, (1, 1))
    assert_allclose(cluster_powers(np.zeros((1, 1)), shadow, [1e-7], 3.0), [[1.0]])


def test_equal_delays_equal_powers_without_shadowing():
    powers = cluster_powers(np.zeros((1, 8)), np.zeros((1, 8)), [1e-7], 3.0)
    assert_allclose(powers, np.full((1, 8), 1.0 / 8.0), atol=1e-15)


def test_power_normalization_many_draws():
    rng = np.random.default_rng(5)
    ds = np.full(1000, 1e-7)
    delays = cluster_delays(rng.random((1000, 12)), ds, 2.5)
    powers = cluster_powers(delays, rng.normal(0.0, 3.0, (1000, 12)), ds, 2.5)
    assert np.all(np.abs(powers.sum(axis=-1) - 1.0) < 1e-12)
    ray = np.repeat(powers[..., None] / 20.0, 20, axis=-1)
    assert np.all(np.abs(ray.sum(axis=(1, 2)) - 1.0) < 1e-12)


# ------------------------------------------------------------------- angles

def _spread_deg(angles, powers):
    p = np.asarray(powers) / np.asarray(powers).sum()
    mean = math.atan2(float((p * np.sin(angles)).sum()), float((p * np.cos(angles)).sum()))
    dev = (np.asarray(angles) - mean + math.pi) % (2.0 * math.pi) - math.pi
    return math.degrees(math.sqrt(float((p * dev**2).sum())))


def _angles(rng, powers, spread_deg, mean, zenith=False):
    """One cluster angle set per row of powers, with fresh signs and perturbations."""
    spread = np.full(powers.shape[0], math.radians(spread_deg))
    signs = rng.integers(0, 2, powers.shape) * 2 - 1
    perturb = rng.normal(0.0, 1.0, powers.shape) * spread[:, None] / 7.0
    return cluster_angles(powers, spread, signs, perturb, np.full(powers.shape[0], mean), zenith)


def test_tiny_spread_collapses_to_mean():
    rng = np.random.default_rng(6)
    powers = np.array([[0.5, 0.3, 0.2]])
    los_az, los_zen = 0.4, 1.3
    az = _angles(rng, powers, 1e-9, los_az)
    zen = _angles(rng, powers, 1e-9, los_zen, zenith=True)
    assert np.max(np.abs(np.degrees(az - los_az))) < 1e-6
    assert np.max(np.abs(np.degrees(zen - los_zen))) < 1e-6


def test_mean_zenith_unbiased():
    rng = np.random.default_rng(7)
    powers = np.tile([0.4, 0.3, 0.2, 0.1], (10_000, 1))
    zen = _angles(rng, powers, 6.0, 1.4, zenith=True)
    mean_deg = math.degrees(float(np.mean((powers * zen).sum(axis=-1))))
    assert abs(mean_deg - math.degrees(1.4)) < 0.5


def test_elevation_mean_offset_applied():
    # The departure zenith mean moves by the offset: LOS at 90 deg, offset 5 deg.
    cfg = SspConfig(n_clusters=4, elevation_offset_dep_deg=5.0)
    lsps = _lsps(asd=10.0, esd=6.0)
    batch = generate_cluster_set(
        [lsps] * 2000, np.tile([0.0, math.pi / 2], (2000, 1)),
        np.tile([-math.pi, math.pi / 2], (2000, 1)), cfg, [np.random.default_rng([8, i]) for i in range(2000)],
    )
    mean_zod = (batch.ray_powers * batch.zod).sum(axis=(1, 2))
    assert abs(math.degrees(float(mean_zod.mean())) - 95.0) < 1.0
    mean_zoa = (batch.ray_powers * batch.zoa).sum(axis=(1, 2))
    assert abs(math.degrees(float(mean_zoa.mean())) - 90.0) < 1.0


def test_realized_azimuth_spread_matches_target():
    rng = np.random.default_rng(9)
    target = 25.0
    powers = rng.dirichlet(np.ones(10), 10_000)
    az = _angles(rng, powers, target, 0.7)
    worst = max(abs(_spread_deg(a, p) - target) / target for a, p in zip(az, powers))
    assert worst < 0.10


def test_stronger_clusters_sit_closer_to_the_mean():
    rng = np.random.default_rng(10)
    powers = rng.dirichlet(np.ones(12), 300)
    az = _angles(rng, powers, 30.0, 0.0)
    dev = np.abs((az + math.pi) % (2 * math.pi) - math.pi)
    corr = [np.corrcoef(p, d)[0, 1] for p, d in zip(powers, dev)]
    assert np.mean(corr) < -0.2


def test_nonpositive_angular_spread_rejected():
    powers = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="angular spreads must be positive"):
        cluster_angles(powers, [0.1, 0.0], np.ones((2, 3)), np.zeros((2, 3)), [0.0, 0.0])
    zero_esd = _lsps(ds=1e-7, asd=10.0, esd=0.0, asa=10.0, esa=5.0)
    with pytest.raises(ValueError, match="angular spreads must be positive"):
        generate_cluster_set([zero_esd], [[0.0, 1.5]], [[1.0, 1.5]],
                             SspConfig(), [np.random.default_rng(0)])


def test_circular_mean_is_a_float_on_one_link():
    angles, powers = np.array([0.1, 0.3, -0.2]), np.array([0.5, 0.3, 0.2])
    assert isinstance(circular_mean(angles, powers), float)
    assert isinstance(angular_spread_deg(angles, powers), float)
    rows = circular_mean(np.stack([angles, -angles]), np.stack([powers, powers]))
    assert rows.shape == (2,) and rows[0] == circular_mean(angles, powers)


# ----------------------------------------------------------------- subpaths

def test_zero_scalers_keep_cluster_angles():
    offsets = SspConfig(c_aod_deg=0.0, c_zod_deg=0.0, c_aoa_deg=0.0, c_zoa_deg=0.0)
    assert np.array_equal(offsets.ray_basis(), RAY_OFFSETS_20)
    cluster = (
        np.array([0.3, -1.0]), np.array([1.2, 1.4]), np.array([2.0, -2.0]), np.array([0.5, 0.9])
    )
    for arr, base in zip(expand_subpaths(cluster, offsets), cluster):
        assert_allclose(arr, np.repeat(base[:, None], 20, axis=1), atol=1e-15)


def test_subpath_mean_equals_cluster_angle():
    offsets = SspConfig()
    cluster = (np.array([0.2]), np.array([1.3]), np.array([-0.4]), np.array([1.0]))
    aod, zod, aoa, zoa = expand_subpaths(cluster, offsets)
    assert_allclose(aod.mean(), 0.2, atol=1e-12)
    assert_allclose(zod.mean(), 1.3, atol=1e-12)
    assert_allclose(aoa.mean(), -0.4, atol=1e-12)
    assert_allclose(zoa.mean(), 1.0, atol=1e-12)


def test_two_ray_offsets_direct_substitution():
    offsets = SspConfig(n_rays=2, ray_offsets=(0.5, -0.5), c_aod_deg=0.0, c_zod_deg=2.0,
                        c_aoa_deg=0.0, c_zoa_deg=0.0)
    cluster = (np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([1.0]))
    _, zod, _, _ = expand_subpaths(cluster, offsets)
    assert_allclose(np.sort(zod[0]), [1.0 - 2.0 * 0.5 * D2R, 1.0 + 2.0 * 0.5 * D2R])


def test_zenith_reflection_at_poles():
    assert_allclose(reflect_zenith(-0.1), 0.1)
    assert_allclose(reflect_zenith(math.pi + 0.2), math.pi - 0.2)
    values = np.linspace(-1.0, 4.0, 101)
    out = reflect_zenith(values)
    assert np.all((out >= 0.0) & (out <= math.pi))


def test_asymmetric_offsets_rejected():
    cfg = default_config("UMa", master_seed=1)
    cfg.ssp.n_rays, cfg.ssp.ray_offsets = 2, (0.1, 0.2)
    with pytest.raises(ConfigError, match=re.escape("ssp.ray_offsets: ray offsets must be symmetric")):
        validate(cfg)


# ------------------------------------------------------------- polarization

def test_polarization_matrix_kappa_zero_is_diagonal():
    mat = polarization_matrix(np.array(0.0), np.array([0.1, 0.2, 0.3, 0.4]))
    assert_allclose(mat[0, 1], 0.0, atol=1e-15)
    assert_allclose(mat[1, 0], 0.0, atol=1e-15)


def test_polarization_matrix_moduli():
    batch = _batch(3, 11)
    kappa = batch.xpr
    mat = polarization_matrix(kappa, batch.phases)
    assert_allclose(np.abs(mat[..., 0, 0]), 1.0, atol=1e-12)
    assert_allclose(np.abs(mat[..., 1, 1]), 1.0, atol=1e-12)
    assert_allclose(np.abs(mat[..., 0, 1]), np.sqrt(kappa), rtol=1e-12)
    assert_allclose(np.abs(mat[..., 1, 0]), np.sqrt(kappa), rtol=1e-12)


def test_polarization_inverse_convention():
    kappa = np.array(4.0)
    phases = np.zeros(4)
    mat = polarization_matrix(kappa, phases, offdiag_inverse=True)
    assert_allclose(np.abs(mat[0, 1]), 0.5)


def test_xpr_mean_db():
    # 250 links of 20 x 20 rays: 100,000 XPR draws.
    batch = _batch(250, 12)
    assert abs(np.mean(10.0 * np.log10(batch.xpr)) + 8.0) < 0.1
    assert np.all((batch.phases >= 0.0) & (batch.phases < 2.0 * math.pi))


# -------------------------------------------------------------- cluster set

def _cfg(**kw):
    return SspConfig(**kw)


def _one_link(cfg, rng):
    """A batch of one link with the default LSPs."""
    return generate_cluster_set(
        [_lsps()], [[0.1, 1.5]], [[2.0, 1.6]], cfg, [rng]
    )


def test_cluster_set_invariants():
    cs = _batch(20, 13)
    assert cs.delays_s.shape == (20, 20) and cs.aod.shape == (20, 20, 20)
    assert np.all(cs.delays_s[:, 0] == 0.0)
    assert np.all(np.diff(cs.delays_s, axis=-1) >= 0.0)
    assert np.all(np.abs(cs.ray_powers.sum(axis=(1, 2)) - 1.0) < 1e-9)
    assert np.all(cs.xpr > 0.0)
    assert np.all((cs.phases >= 0.0) & (cs.phases < 2.0 * math.pi))
    assert np.all((cs.zod >= 0.0) & (cs.zod <= math.pi))
    assert np.all((cs.zoa >= 0.0) & (cs.zoa <= math.pi))


def test_cluster_set_regeneration_is_bitwise_identical():
    cfg = _cfg()
    a = _one_link(cfg, np.random.default_rng(77))
    b = _one_link(cfg, np.random.default_rng(77))
    assert np.array_equal(a.delays_s, b.delays_s)
    assert np.array_equal(a.ray_powers, b.ray_powers)
    assert np.array_equal(a.aod, b.aod)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.los_phase_vv, b.los_phase_vv)


def test_subcluster_split_adds_four_taps():
    cfg = _cfg(split_strongest=True)
    cs = _one_link(cfg, np.random.default_rng(14)).link(0)
    assert cs.n_clusters == cfg.n_clusters + 4
    assert abs(cs.ray_powers.sum() - 1.0) < 1e-9
    assert cs.delays_s[0] == 0.0
    assert np.all(np.diff(cs.delays_s) >= 0.0)


def test_split_requires_twenty_rays():
    cfg = _cfg(n_rays=2)
    cs = _one_link(cfg, np.random.default_rng(15))
    with pytest.raises(ValueError):
        split_strongest_clusters(cs)


def test_batch_checks_name_the_failing_field():
    batch = _batch(3, 16)
    fields = {name: getattr(batch, name).copy() for name in FIELDS}
    fields["delays_s"][1, 0] = 1e-9
    with pytest.raises(ValueError, match="delays must be non-decreasing with first delay 0"):
        ClusterSet(**fields)
    fields["delays_s"][1, 0] = 0.0
    fields["ray_powers"][2] *= 1.5
    with pytest.raises(ValueError, match="ray powers must sum to 1"):
        ClusterSet(**fields)


# ------------------------------------------------ batch against the oracle

def _assert_links_match_oracle(lsps, deps, arrs, cfg, rngs, batch):
    for i, link in enumerate(zip(lsps, deps, arrs, rngs)):
        expected = oracle.generate_cluster_set(*link[:3], cfg, link[3])
        got = batch.link(i)
        for name in FIELDS:
            assert np.array_equal(getattr(got, name), getattr(expected, name)), (i, name)


def _ssp_options(cfg):
    cfg.ssp.elevation_offset_dep_deg = 2.5
    cfg.ssp.elevation_offset_arr_deg = -4.0
    cfg.ssp.xpr_offdiag = "sqrt_inv_kappa"
    cfg.ssp.n_rays = 6
    cfg.ssp.ray_offsets = (0.3, -0.3, 0.9, -0.9, 1.7, -1.7)


@pytest.mark.parametrize("options", ["default", "split_strongest", "ssp_options"])
def test_campaign_batches_match_per_link_oracle(options, tmp_path, monkeypatch, caplog):
    # Every link of every UE of a one-ring campaign (21 UEs x 21 cells, LOS
    # and NLOS links): each batch row equals the one-link draw, bit for bit.
    calls = []
    batched = campaign.generate_cluster_set

    def recording(lsps, deps, arrs, cfg, rngs):
        fresh = copy.deepcopy(rngs)
        batch = batched(lsps, deps, arrs, cfg, rngs)
        calls.append((lsps, deps, arrs, cfg, fresh, batch))
        return batch

    monkeypatch.setattr(campaign, "generate_cluster_set", recording)
    cfg = default_config("UMa", master_seed=31)
    cfg.layout.n_rings = 1
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.run.output_dir = str(tmp_path)
    cfg.antenna.downtilt_sweep_deg = (12.0,)
    cfg.ssp.split_strongest = options == "split_strongest"
    if options == "ssp_options":
        _ssp_options(cfg)
    with caplog.at_level(logging.INFO, logger="chan3d"):
        campaign.run_campaign(cfg)
    [found] = filter(None, (re.search(r"(\d+) \(UE, site\) links, (\d+) LOS", line)
                            for line in caplog.messages))
    n_links, n_los = map(int, found.groups())
    assert 0 < n_los < n_links
    assert len(calls) == 21 and all(len(call[0]) == 21 for call in calls)
    for call in calls:
        _assert_links_match_oracle(*call)


def test_single_cluster_links_match_per_link_oracle():
    # One cluster per link: every spread is zero, so every row of the
    # rescale is degenerate from its first pass.
    cfg = _cfg(n_clusters=1)
    lsps = [_lsps(asd=5.0 + i) for i in range(4)]
    deps = np.array([[0.3 * i, 1.2] for i in range(4)])
    arrs = np.array([[-0.3 * i, 1.9] for i in range(4)])
    rngs = [np.random.default_rng([17, i]) for i in range(4)]
    batch = generate_cluster_set(lsps, deps, arrs, cfg, copy.deepcopy(rngs))
    _assert_links_match_oracle(lsps, deps, arrs, cfg, rngs, batch)


def test_rescale_mixes_degenerate_and_normal_rows():
    # One batch: normal rows; a one-cluster link, padded with zero-power
    # clusters (zero spread: returned unchanged); the same with a zero target
    # (collapsed onto the mean); equal angles (zero spread); and a zero
    # target on a row that has spread. Each row equals the one-row rescale.
    rng = np.random.default_rng(18)
    angles = rng.uniform(-math.pi, math.pi, (7, 20))
    powers = rng.dirichlet(np.ones(20), 7)
    target = np.radians([20.0, 45.0, 10.0, 0.0, 30.0, 0.0, 60.0])
    powers[2:4] = np.eye(20)[5]
    angles[4] = 0.7
    out = _rescale_to_spread(angles, powers, target)
    for row in range(7):
        expected = oracle.rescale_to_spread(angles[row], powers[row], float(target[row]))
        assert np.array_equal(out[row], expected), row
    assert np.array_equal(out[2], angles[2]) and np.all(out[3] == out[3, 0])
