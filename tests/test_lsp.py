import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.config import default_config
from chan3d.geom import GeometryError
from chan3d.lsp import (
    LSP_NAMES,
    DistanceTable,
    LspDistributionSpec,
    LspSampler,
    Marginal,
    Pathloss,
    SpatialGaussianField,
    lsps_from_normals,
    pathloss_db,
)


def _simple_spec(corr=None, sigma=1.0):
    table = DistanceTable((0.0,), (1.0,), (sigma,))
    return LspDistributionSpec(
        sf=Marginal(0.0, 6.0 if sigma else 0.0),
        k_factor=Marginal(9.0, 3.5 * sigma),
        ds_log10=Marginal(-6.5, 0.4 * sigma),
        asd_log10=Marginal(1.4, 0.3 * sigma),
        asa_log10=Marginal(1.8, 0.1 * sigma),
        esd_log10=table,
        esa_log10=table,
        correlation=np.eye(7) if corr is None else corr,
        decorrelation_m={name: 50.0 for name in LSP_NAMES},
    )


def _uma_pathloss():
    return default_config("UMa", master_seed=1).pathloss


def _pl(model, d2d=200.0, h_ue=1.5, los=False, indoor=False, h_bs=25.0):
    """Pathloss of one link at 2 GHz."""
    return float(pathloss_db(model, math.hypot(d2d, h_bs - h_ue), h_ue, indoor, los, 2e9))


# ---------------------------------------------------------------- pathloss

def test_pathloss_nlos_hand_oracle():
    # Spreadsheet-style evaluation of the documented default formula:
    # 13.54 + 39.08*log10(200) + 20*log10(2.0) - 0.6*(1.5 - 1.5)
    model = _uma_pathloss()
    expected = 13.54 + 39.08 * math.log10(math.hypot(200.0, 23.5)) + 20.0 * math.log10(2.0)
    assert_allclose(_pl(model, d2d=200.0), expected, atol=1e-12)
    assert_allclose(_pl(model, d2d=200.0, h_bs=1.5), 109.48485214382802, atol=1e-10)


def test_pathloss_los_hand_oracle():
    model = _uma_pathloss()
    assert_allclose(_pl(model, d2d=200.0, h_bs=1.5, los=True), 84.64325981788721, atol=1e-10)


def test_pathloss_doubling_distance():
    model = _uma_pathloss()
    delta = _pl(model, d2d=200.0, h_bs=1.5) - _pl(model, d2d=100.0, h_bs=1.5)
    assert_allclose(delta, 10.0 * 3.908 * math.log10(2.0), atol=1e-12)


def test_pathloss_height_reference():
    model = _uma_pathloss()
    assert_allclose(_pl(model, h_ue=1.5), _pl(model, h_ue=1.5))
    # Raising the UE reduces NLOS loss by ~0.6 dB/m (plus a small d_3d change).
    assert _pl(model, h_ue=10.5) < _pl(model, h_ue=1.5)


def test_pathloss_indoor_penetration():
    model = _uma_pathloss()
    assert_allclose(_pl(model, indoor=True) - _pl(model), 20.0)


def test_pathloss_monotone_and_continuous():
    model = _uma_pathloss()
    distances = np.linspace(10.0, 5000.0, 4000)
    values = pathloss_db(model, np.hypot(distances, 23.5), 1.5, False, False, 2e9)
    assert values.shape == distances.shape
    diffs = np.diff(values)
    assert np.all(diffs > 0)
    assert np.max(np.abs(diffs)) < 1.0  # no jumps on a fine grid
    heights = np.linspace(1.5, 22.5, 500)
    hv = pathloss_db(model, np.hypot(200.0, 25.0 - heights), heights, False, False, 2e9)
    assert np.max(np.abs(np.diff(hv))) < 0.1


def test_pathloss_zero_distance_rejected():
    with pytest.raises(GeometryError):
        pathloss_db(_uma_pathloss(), 0.0, 1.5, False, False, 2e9)


# ------------------------------------------------------- lsps_from_normals

def _draw(spec, rng, n=None):
    """LSPs from n rows of standard normals (one row when n is None), at 200 m."""
    return lsps_from_normals(spec, rng.standard_normal(7 if n is None else (n, 7)), 200.0, 1.5)


def _generation_domain(lsps):
    """dB for SF and K, log10 of the natural unit for the spreads."""
    return np.concatenate([lsps[..., :2], np.log10(lsps[..., 2:])], axis=-1)


def test_draw_lsps_degenerate_sigma_returns_mu():
    spec = _simple_spec(sigma=0.0)
    spec.sf = Marginal(1.25, 0.0)
    out = _draw(spec, np.random.default_rng(0))
    assert out.shape == (7,)
    assert_allclose(out[LSP_NAMES.index("sf")], 1.25)
    assert_allclose(out[LSP_NAMES.index("k")], 9.0)
    assert_allclose(out[LSP_NAMES.index("ds")], 10.0**-6.5)
    assert_allclose(out[LSP_NAMES.index("asd")], 10.0**1.4)
    assert_allclose(out[LSP_NAMES.index("esd")], 10.0)


def test_draw_lsps_perfect_correlation():
    corr = np.eye(7)
    i, j = LSP_NAMES.index("ds"), LSP_NAMES.index("asd")
    corr[i, j] = corr[j, i] = 1.0
    spec = _simple_spec(corr=corr)
    spec.ds_log10 = Marginal(0.0, 1.0)
    spec.asd_log10 = Marginal(0.0, 1.0)
    out = _draw(spec, np.random.default_rng(42), 50)
    assert_allclose(np.log10(out[:, i]), np.log10(out[:, j]), atol=1e-12)


def test_draw_lsps_cross_correlation_monte_carlo():
    corr = np.eye(7)
    pairs = {("ds", "asd"): 0.4, ("ds", "asa"): 0.6, ("sf", "asd"): -0.6, ("asa", "esa"): 0.2}
    for (a, b), v in pairs.items():
        i, j = LSP_NAMES.index(a), LSP_NAMES.index(b)
        corr[i, j] = corr[j, i] = v
    spec = _simple_spec(corr=corr)
    samples = _generation_domain(_draw(spec, np.random.default_rng(123), 100_000))
    empirical = np.corrcoef(samples.T)
    assert np.max(np.abs(empirical - corr)) < 0.03


def test_sf_moments():
    spec = _simple_spec()
    values = _draw(spec, np.random.default_rng(7), 100_000)[:, 0]
    assert abs(values.mean()) < 0.1
    assert abs(values.std() / 6.0 - 1.0) < 0.02


def _ks_statistic_vs_normal(samples, mu, sigma):
    z = np.sort((samples - mu) / sigma)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
    n = len(z)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return max(upper.max(), lower.max())


def test_marginals_survive_correlation_mixing():
    # KS test against each configured marginal at n=1e4; the p>0.01 criterion
    # is D * sqrt(n) < 1.628 for the Kolmogorov distribution.
    corr = np.eye(7)
    for (a, b), v in (("ds", "asd"), 0.4), (("sf", "esa"), -0.4), (("asd", "asa"), 0.4):
        i, j = LSP_NAMES.index(a), LSP_NAMES.index(b)
        corr[i, j] = corr[j, i] = v
    spec = _simple_spec(corr=corr)
    n = 10_000
    data = _generation_domain(_draw(spec, np.random.default_rng(314), n))
    for col, mu, sigma in ((0, 0.0, 6.0), (2, -6.5, 0.4), (4, 1.8, 0.1)):
        d = _ks_statistic_vs_normal(data[:, col], mu, sigma)
        assert d * math.sqrt(n) < 1.628


def test_non_psd_correlation_rejected():
    corr = np.eye(7)
    corr[0, 1] = corr[1, 0] = 0.9
    corr[1, 2] = corr[2, 1] = 0.9
    corr[0, 2] = corr[2, 0] = -0.9
    spec = _simple_spec(corr=corr)
    with pytest.raises(ValueError):
        spec.mixing_factor()


def test_distance_table_interpolation():
    table = DistanceTable((0.0, 100.0), (1.0, 0.0), (0.5, 0.3), mu_height_slope_per_m=-0.01)
    mid = table.at(50.0)
    assert_allclose([mid.mu, mid.sigma], [0.5, 0.4])
    assert_allclose(table.at(1000.0).mu, 0.0)  # clamped
    assert_allclose(table.at(50.0, h_ue=11.5).mu, 0.5 - 0.1)


# ------------------------------------------------------------- site sharing

def _slow_fading(sampler, ue_ids, ue_xy, site_xy, all_lsps=True):
    """The slow-fading kernel for outdoor UEs at 1.5 m and 25 m sites."""
    ue_xy = np.asarray(ue_xy, dtype=float)
    return sampler.slow_fading(
        ue_ids, np.column_stack([ue_xy, np.full(len(ue_xy), 1.5)]), np.zeros(len(ue_xy), bool),
        np.asarray(site_xy, dtype=float), 25.0, _uma_pathloss(), 2e9, all_lsps=all_lsps,
    )


SITES = [(0.0, 0.0), (500.0, 0.0), (250.0, 433.0), (-250.0, 433.0)]


def test_shared_site_lsps_identical_across_cells():
    # One draw per (UE, site), whatever the block it is computed in; all
    # cells of the site read it.
    spec = _simple_spec()
    sampler = LspSampler(spec, spec, master_seed=5)
    xy = [(40.0, 30.0), (-90.0, 120.0), (200.0, -60.0)]
    alone = _slow_fading(sampler, [3], xy[2:], SITES)
    block = _slow_fading(sampler, [1, 2, 3], xy, SITES)
    again = _slow_fading(sampler, [3], xy[2:], SITES[:3])
    assert alone.link_lsps(0, 2) == block.link_lsps(2, 2) == again.link_lsps(0, 2)


def test_shared_site_lsps_independent_across_sites():
    spec = _simple_spec()
    sampler = LspSampler(spec, spec, master_seed=5)
    n = 10_000
    slow = _slow_fading(sampler, range(n), np.full((n, 2), 150.0), SITES[:2], all_lsps=False)
    rho = np.corrcoef(slow.sf[:, 0], slow.sf[:, 1])[0, 1]
    assert abs(rho) < 0.05


def test_shared_site_lsps_deterministic():
    spec = _simple_spec()
    one = _slow_fading(LspSampler(spec, spec, master_seed=11), [2], [(70.0, 80.0)], SITES)
    two = _slow_fading(LspSampler(spec, spec, master_seed=11), [2], [(70.0, 80.0)], SITES)
    assert np.array_equal(one.lsps, two.lsps)
    assert np.array_equal(one.los, two.los)


def test_los_probability_shape():
    p_los = Pathloss().los_probability
    assert p_los(5.0) == 1.0
    assert p_los(18.0) == 1.0
    assert 0.0 < p_los(200.0) < p_los(100.0) < 1.0


def test_los_probability_broadcasts_like_scalar_exp():
    d = np.random.default_rng(3).uniform(0.0, 1500.0, (40, 19))
    expected = [[min(1.0, math.exp(-(v - 18.0) / 63.0)) for v in row] for row in d.tolist()]
    assert np.array_equal(Pathloss().los_probability(d), expected)


def test_los_state_deterministic_and_distance_dependent():
    spec = _simple_spec()
    # UE 0 sits inside the certain-LOS radius of the one site; 2000 UEs at 150 m.
    ue_xy = [(10.0, 0.0)] + [(150.0, 0.0)] * 2000

    def los():
        sampler = LspSampler(spec, spec, master_seed=9)
        return _slow_fading(sampler, range(len(ue_xy)), ue_xy, [(0.0, 0.0)], all_lsps=False).los

    states = los()
    assert states[0, 0]
    frac = np.mean(states[1:, 0])
    expected = math.exp(-(150.0 - 18.0) / 63.0)
    assert abs(frac - expected) < 0.04
    assert np.array_equal(states, los())


# ------------------------------------------------------------ spatial field

def test_spatial_field_variance_and_correlation():
    decorr = 50.0
    rng = np.random.default_rng(0)
    prods_at_decorr = []
    variances = []
    for trial in range(400):
        fld = SpatialGaussianField(decorr, (trial, 99), n_terms=128)
        xs = rng.uniform(-500, 500, 40)
        ys = rng.uniform(-500, 500, 40)
        vals = np.array([fld.sample(x, y) for x, y in zip(xs, ys)])
        variances.append(vals.var())
        v0 = fld.sample(0.0, 0.0)
        v1 = fld.sample(decorr, 0.0)
        prods_at_decorr.append(v0 * v1)
    assert abs(np.mean(variances) - 1.0) < 0.1
    assert abs(np.mean(prods_at_decorr) - math.exp(-1.0)) < 0.1


def test_spatial_sampler_position_keyed_and_correlated():
    spec = _simple_spec()
    sampler = LspSampler(spec, spec, master_seed=13, spatial=True)
    # Position drives the draw: the UE id is irrelevant in spatial mode.
    slow = _slow_fading(sampler, [0, 99], [(12.0, -7.0), (12.0, -7.0)], SITES)
    assert np.array_equal(slow.lsps[0], slow.lsps[1])
    # Ensemble correlation of SF at 1 m separation across many sites is high.
    xs = (-200.0, 0.0, 200.0)
    xy = [(x + dx, 0.0) for x in xs for dx in (0.0, 1.0)]
    sites = np.column_stack([np.arange(100) * 37.0, np.full(100, 900.0)])
    sf = _slow_fading(sampler, range(len(xy)), xy, sites, all_lsps=False).sf
    rho = np.corrcoef(sf[0::2].ravel(), sf[1::2].ravel())[0, 1]
    assert rho > 0.9
