import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.config import default_config
from chan3d.geom import GeometryError
from chan3d.lsp import (
    LSP_NAMES,
    DecorrelationSection,
    LspSampler,
    LspSection,
    Pathloss,
    field_waves,
    lsps_from_normals,
    mixing_factor,
    pathloss_db,
)


def _simple_section(sigma=1.0):
    """An [lsp_*] section with flat ESD/ESA tables and no height slope."""
    table = ((0.0, 1.0, sigma),)
    return LspSection(
        sf_mu_db=0.0, sf_sigma_db=6.0 if sigma else 0.0,
        k_mu_db=9.0, k_sigma_db=3.5 * sigma,
        ds_log10_mu=-6.5, ds_log10_sigma=0.4 * sigma,
        asd_log10_mu=1.4, asd_log10_sigma=0.3 * sigma,
        asa_log10_mu=1.8, asa_log10_sigma=0.1 * sigma,
        esd_table=table, esd_height_slope_per_m=0.0,
        esa_table=table, esa_height_slope_per_m=0.0,
    )


def _simple_sampler(master_seed, spatial=False):
    """Uncorrelated LSPs of one section for both LOS states, 50 m decorrelation."""
    state = (_simple_section(), {})
    decorrelation = DecorrelationSection(*[50.0] * len(LSP_NAMES))
    return LspSampler(state, state, decorrelation, master_seed, spatial=spatial)


def _correlation(pairs):
    """The 7x7 correlation matrix of {(a, b): value} pairs, and the pairs as
    a correlation section's "a_b" keys."""
    corr = np.eye(7)
    for (a, b), v in pairs.items():
        i, j = LSP_NAMES.index(a), LSP_NAMES.index(b)
        corr[i, j] = corr[j, i] = v
    return corr, {f"{a}_{b}": v for (a, b), v in pairs.items()}


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

def _draw(section, rng, n=None, pairs=None):
    """LSPs from n rows of standard normals (one row when n is None), at 200 m."""
    normals = rng.standard_normal(7 if n is None else (n, 7))
    return lsps_from_normals(section, mixing_factor(pairs or {}), normals, 200.0, 1.5)


def _generation_domain(lsps):
    """dB for SF and K, log10 of the natural unit for the spreads."""
    return np.concatenate([lsps[..., :2], np.log10(lsps[..., 2:])], axis=-1)


def test_draw_lsps_degenerate_sigma_returns_mu():
    section = _simple_section(sigma=0.0)
    section.sf_mu_db = 1.25
    out = _draw(section, np.random.default_rng(0))
    assert out.shape == (7,)
    assert_allclose(out[LSP_NAMES.index("sf")], 1.25)
    assert_allclose(out[LSP_NAMES.index("k")], 9.0)
    assert_allclose(out[LSP_NAMES.index("ds")], 10.0**-6.5)
    assert_allclose(out[LSP_NAMES.index("asd")], 10.0**1.4)
    assert_allclose(out[LSP_NAMES.index("esd")], 10.0)


def test_draw_lsps_perfect_correlation():
    i, j = LSP_NAMES.index("ds"), LSP_NAMES.index("asd")
    section = _simple_section()
    section.ds_log10_mu, section.ds_log10_sigma = 0.0, 1.0
    section.asd_log10_mu, section.asd_log10_sigma = 0.0, 1.0
    out = _draw(section, np.random.default_rng(42), 50, {"ds_asd": 1.0})
    assert_allclose(np.log10(out[:, i]), np.log10(out[:, j]), atol=1e-12)


def test_draw_lsps_cross_correlation_monte_carlo():
    corr, pairs = _correlation(
        {("ds", "asd"): 0.4, ("ds", "asa"): 0.6, ("sf", "asd"): -0.6, ("asa", "esa"): 0.2}
    )
    samples = _generation_domain(_draw(_simple_section(), np.random.default_rng(123), 100_000, pairs))
    empirical = np.corrcoef(samples.T)
    assert np.max(np.abs(empirical - corr)) < 0.03


def test_sf_moments():
    values = _draw(_simple_section(), np.random.default_rng(7), 100_000)[:, 0]
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
    _, pairs = _correlation({("ds", "asd"): 0.4, ("sf", "esa"): -0.4, ("asd", "asa"): 0.4})
    n = 10_000
    data = _generation_domain(_draw(_simple_section(), np.random.default_rng(314), n, pairs))
    for col, mu, sigma in ((0, 0.0, 6.0), (2, -6.5, 0.4), (4, 1.8, 0.1)):
        d = _ks_statistic_vs_normal(data[:, col], mu, sigma)
        assert d * math.sqrt(n) < 1.628


def test_non_psd_correlation_rejected():
    with pytest.raises(ValueError, match="not positive semi-definite"):
        mixing_factor({"sf_k": 0.9, "k_ds": 0.9, "sf_ds": -0.9})


def test_distance_table_interpolation():
    section = _simple_section()
    section.esd_table = ((0.0, 1.0, 0.5), (100.0, 0.0, 0.3))
    section.esd_height_slope_per_m = -0.01

    def log10_esd(d_2d, h_ue=1.5, normal=0.0):
        """log10 ESD at an ESD normal (mu, or mu + sigma at normal 1)."""
        normals = np.zeros(7)
        normals[LSP_NAMES.index("esd")] = normal
        lsps = lsps_from_normals(section, mixing_factor({}), normals, d_2d, h_ue)
        return math.log10(lsps[LSP_NAMES.index("esd")])

    mu = log10_esd(50.0)
    assert_allclose([mu, log10_esd(50.0, normal=1.0) - mu], [0.5, 0.4])
    assert_allclose(log10_esd(1000.0), 0.0)  # clamped
    assert_allclose(log10_esd(50.0, h_ue=11.5), 0.5 - 0.1)


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
    sampler = _simple_sampler(5)
    xy = [(40.0, 30.0), (-90.0, 120.0), (200.0, -60.0)]
    alone = _slow_fading(sampler, [3], xy[2:], SITES)
    block = _slow_fading(sampler, [1, 2, 3], xy, SITES)
    again = _slow_fading(sampler, [3], xy[2:], SITES[:3])
    assert np.array_equal(alone.lsps[0, 2], block.lsps[2, 2])
    assert np.array_equal(alone.lsps[0, 2], again.lsps[0, 2])


def test_shared_site_lsps_independent_across_sites():
    sampler = _simple_sampler(5)
    n = 10_000
    slow = _slow_fading(sampler, range(n), np.full((n, 2), 150.0), SITES[:2], all_lsps=False)
    rho = np.corrcoef(slow.sf[:, 0], slow.sf[:, 1])[0, 1]
    assert abs(rho) < 0.05


def test_shared_site_lsps_deterministic():
    one = _slow_fading(_simple_sampler(11), [2], [(70.0, 80.0)], SITES)
    two = _slow_fading(_simple_sampler(11), [2], [(70.0, 80.0)], SITES)
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
    # UE 0 sits inside the certain-LOS radius of the one site; 2000 UEs at 150 m.
    ue_xy = [(10.0, 0.0)] + [(150.0, 0.0)] * 2000

    def los():
        sampler = _simple_sampler(9)
        return _slow_fading(sampler, range(len(ue_xy)), ue_xy, [(0.0, 0.0)], all_lsps=False).los

    states = los()
    assert states[0, 0]
    frac = np.mean(states[1:, 0])
    expected = math.exp(-(150.0 - 18.0) / 63.0)
    assert abs(frac - expected) < 0.04
    assert np.array_equal(states, los())


# ------------------------------------------------------------ spatial field

def _field_at(waves, x, y):
    """A field's value at one point from its (kx, ky, phase) wave arrays."""
    kx, ky, phase = waves
    return math.sqrt(2.0 / len(kx)) * np.cos(kx * x + ky * y + phase).sum()


def test_spatial_field_variance_and_correlation():
    decorr = 50.0
    rng = np.random.default_rng(0)
    prods_at_decorr = []
    variances = []
    for trial in range(400):
        waves = field_waves(decorr, (trial, 99), 128)
        xs = rng.uniform(-500, 500, 40)
        ys = rng.uniform(-500, 500, 40)
        vals = np.array([_field_at(waves, x, y) for x, y in zip(xs, ys)])
        variances.append(vals.var())
        v0 = _field_at(waves, 0.0, 0.0)
        v1 = _field_at(waves, decorr, 0.0)
        prods_at_decorr.append(v0 * v1)
    assert abs(np.mean(variances) - 1.0) < 0.1
    assert abs(np.mean(prods_at_decorr) - math.exp(-1.0)) < 0.1


def test_spatial_sampler_position_keyed_and_correlated():
    sampler = _simple_sampler(13, spatial=True)
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
