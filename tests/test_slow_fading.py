"""The slow-fading array kernel against the per-link form it replaced.

`_per_link` is the scalar path the campaign took before the kernel: for one
UE, one LOS draw, one pathloss and one LSP draw per site, with the pathloss
and LSP marginals written out in scalar form. The kernel must reproduce it
bit for bit: over the whole drop or a sub-range of it, at any chunk size and
worker count, and with only SF requested.
"""
import math
import sys

import numpy as np
import pytest

from chan3d.config import default_config
from chan3d.deploy import drop_ues, fold_to_nearest_image, hex_layout, wrap_basis
import chan3d.lsp
from chan3d.lsp import LSP_NAMES, LspSampler, field_waves
from chan3d.rng import STREAM_DROP, STREAM_FIELD, STREAM_LOS_STATE, STREAM_LSP, substream

H_BS = 25.0
CARRIER_HZ = 2e9


def _pathloss(model, d_3d, h_ue, indoor, los, frequency_hz):
    state = "los" if los else "nlos"
    pl = (
        getattr(model, f"{state}_intercept_db")
        + 10.0 * getattr(model, f"{state}_exponent") * math.log10(d_3d)
        + getattr(model, f"{state}_freq_db") * math.log10(frequency_hz / 1e9)
    )
    if not los:
        pl -= model.ue_height_gain_db_per_m * (h_ue - 1.5)
    if indoor:
        pl += model.indoor_penetration_db
    return pl


def _table(rows, slope, d_2d, h_ue):
    """(mu, sigma) of a distance table at one link."""
    d, mu, sigma = zip(*rows)
    return np.interp(d_2d, d, mu) + slope * (h_ue - 1.5), np.interp(d_2d, d, sigma)


def _field_at(sampler, site, lsp, x, y):
    """The (site, LSP) spatial field at one point: the scaled cosine sum of its waves."""
    kx, ky, phase = field_waves(
        getattr(sampler.decorrelation, LSP_NAMES[lsp]),
        (sampler.master_seed, STREAM_FIELD, site, lsp), sampler.n_field_terms,
    )
    return math.sqrt(2.0 / sampler.n_field_terms) * np.cos(kx * x + ky * y + phase).sum()


def _lsps(sampler, ue_index, site, d_2d, h_ue, los, ue_xy):
    s, factor = sampler.states[0 if los else 1]
    if sampler.spatial:
        x, y = float(ue_xy[0]), float(ue_xy[1])
        normals = np.array([_field_at(sampler, site, i, x, y) for i in range(len(LSP_NAMES))])
    else:
        normals = substream(sampler.master_seed, STREAM_LSP, ue_index, site).standard_normal(7)
    z = factor @ normals
    esd_mu, esd_sigma = _table(s.esd_table, s.esd_height_slope_per_m, d_2d, h_ue)
    esa_mu, esa_sigma = _table(s.esa_table, s.esa_height_slope_per_m, d_2d, h_ue)
    return (
        s.sf_mu_db + s.sf_sigma_db * z[0],
        s.k_mu_db + s.k_sigma_db * z[1],
        10.0 ** (s.ds_log10_mu + s.ds_log10_sigma * z[2]),
        10.0 ** (s.asd_log10_mu + s.asd_log10_sigma * z[3]),
        10.0 ** (s.asa_log10_mu + s.asa_log10_sigma * z[4]),
        10.0 ** (esd_mu + esd_sigma * z[5]),
        10.0 ** (esa_mu + esa_sigma * z[6]),
    )


def _per_link(sampler, pathloss, site_xy, wrap, ue_index, drop):
    """Per-site 2D distance, departure angles, LOS state, pathloss and LSPs of one UE."""
    ue_xy = np.array([float(v) for v in drop.xyz[ue_index, :2]])
    h_ue, indoor = float(drop.xyz[ue_index, 2]), bool(drop.indoor[ue_index])
    delta = ue_xy - site_xy
    if wrap is not None:
        delta = fold_to_nearest_image(delta, wrap)
    d2d = np.hypot(delta[:, 0], delta[:, 1])
    dz = h_ue - H_BS
    d3d = np.hypot(d2d, dz)
    az_dep = np.arctan2(delta[:, 1], delta[:, 0])
    zen_dep = np.arccos(np.clip(dz / d3d, -1.0, 1.0))
    los = np.empty(site_xy.shape[0], dtype=bool)
    pl = np.empty(site_xy.shape[0])
    lsps = np.empty((site_xy.shape[0], len(LSP_NAMES)))
    for s in range(site_xy.shape[0]):
        d0, decay = pathloss.los_prob_d0_m, pathloss.los_prob_decay_m
        p_los = min(1.0, math.exp(-(float(d2d[s]) - d0) / decay))
        los[s] = substream(sampler.master_seed, STREAM_LOS_STATE, ue_index, s).random() < p_los
        pl[s] = _pathloss(pathloss, float(d3d[s]), h_ue, indoor, bool(los[s]), CARRIER_HZ)
        lsps[s] = _lsps(sampler, ue_index, s, float(d2d[s]), h_ue, bool(los[s]), ue_xy)
    return d2d, az_dep, zen_dep, los, pl, lsps


# Three LSPs whose correlations are those of three unit vectors in a plane:
# positive semi-definite of rank 2, so Cholesky fails and the eigenvalue
# factor, which is not triangular, mixes several fields into SF.
def _semidefinite_correlation():
    angles = {"sf": 0.0, "ds": 37.0, "asd": 101.0}
    return {
        f"{a}_{b}": math.cos(math.radians(angles[a] - angles[b]))
        for a, b in (("sf", "ds"), ("sf", "asd"), ("ds", "asd"))
    }


def _setup(spatial, wrap_around, correlation):
    cfg = default_config("UMa", master_seed=17)
    site_xy = hex_layout(1, cfg.layout.isd_m)
    drop = drop_ues(3, site_xy, substream(17, STREAM_DROP), cfg.layout.isd_m)
    los, nlos = (cfg.lsp_los, cfg.corr_los), (cfg.lsp_nlos, cfg.corr_nlos)
    if correlation is not None:
        los, nlos = (cfg.lsp_los, correlation), (cfg.lsp_nlos, correlation)
    sampler = LspSampler(los, nlos, cfg.decorrelation, 17, spatial=spatial)
    wrap = wrap_basis(1, cfg.layout.isd_m) if wrap_around else None
    return sampler, cfg.pathloss, site_xy, wrap, drop


def _kernel(sampler, pathloss, site_xy, wrap, drop, start, stop, all_lsps, workers=1):
    return sampler.slow_fading(
        range(start, stop), drop.xyz[start:stop], drop.indoor[start:stop],
        site_xy, H_BS, pathloss, CARRIER_HZ, wrap=wrap, all_lsps=all_lsps, workers=workers,
    )


FIELDS = ("d2d", "az_dep", "zen_dep", "los", "pl", "sf", "lsps")


def _assert_rows_equal(got, whole, rows):
    for name in FIELDS:
        value = getattr(whole, name)
        if value is None:
            assert getattr(got, name) is None
        else:
            assert np.array_equal(getattr(got, name), value[rows]), name


def _small_chunks(monkeypatch):
    # 3 UEs per link chunk at 7 sites and 5 UEs per field chunk: the 63-UE
    # drop and its sub-ranges span several chunks of each kind, and chunk
    # edges fall inside them.
    monkeypatch.setattr(chan3d.lsp, "LINK_CHUNK", 3 * 7)
    monkeypatch.setattr(chan3d.lsp, "FIELD_CHUNK", 5)


@pytest.mark.parametrize(
    "spatial, wrap_around, correlation",
    [
        (True, True, None),
        (False, True, None),
        (True, False, None),
        (True, True, _semidefinite_correlation()),
    ],
    ids=["spatial-wrap", "keyed-wrap", "spatial-nowrap", "spatial-wrap-semidefinite"],
)
def test_kernel_equals_per_link_form(spatial, wrap_around, correlation, monkeypatch):
    sampler, pathloss, site_xy, wrap, drop = _setup(spatial, wrap_around, correlation)
    if correlation is not None:
        factor = sampler.states[1][1]
        assert np.any(np.triu(factor, 1) != 0.0)
        assert np.count_nonzero(factor[0]) > 1

    rows = [_per_link(sampler, pathloss, site_xy, wrap, i, drop) for i in range(len(drop))]
    expected = [np.array(column) for column in zip(*rows)]
    d2d, az_dep, zen_dep, los, pl, lsps = expected
    assert 0 < np.count_nonzero(los) < los.size

    full = _kernel(sampler, pathloss, site_xy, wrap, drop, 0, len(drop), True)
    sf_only = _kernel(sampler, pathloss, site_xy, wrap, drop, 0, len(drop), False)
    _small_chunks(monkeypatch)
    chunked = [_kernel(sampler, pathloss, site_xy, wrap, drop, 0, len(drop), all_lsps)
               for all_lsps in (True, False)]
    for got in (full, sf_only, *chunked):
        assert np.array_equal(got.d2d, d2d)
        assert np.array_equal(got.az_dep, az_dep)
        assert np.array_equal(got.zen_dep, zen_dep)
        assert np.array_equal(got.los, los)
        assert np.array_equal(got.pl, pl)
        assert np.array_equal(got.sf, lsps[..., 0])
    assert sf_only.lsps is None and chunked[1].lsps is None
    assert np.array_equal(full.lsps, lsps) and np.array_equal(chunked[0].lsps, lsps)

    split = 40  # two sub-ranges of unequal size
    for whole in (full, sf_only):
        all_lsps = whole.lsps is not None
        for start, stop in ((0, split), (split, len(drop))):
            part = _kernel(sampler, pathloss, site_xy, wrap, drop, start, stop, all_lsps)
            _assert_rows_equal(part, whole, slice(start, stop))


@pytest.mark.parametrize("spatial", [True, False], ids=["spatial", "keyed"])
@pytest.mark.parametrize("all_lsps", [True, False], ids=["all-lsps", "sf-only"])
def test_kernel_bytes_equal_at_any_thread_count(spatial, all_lsps, monkeypatch):
    _small_chunks(monkeypatch)
    sampler, pathloss, site_xy, wrap, drop = _setup(spatial, True, None)
    jobs = sampler.field_jobs(site_xy.shape[0], all_lsps)
    n_lsps = len(LSP_NAMES) if all_lsps else 1  # UMa's SF row of the Cholesky factor is (1, 0, ...)
    assert jobs == ([(s, i) for s in range(site_xy.shape[0]) for i in range(n_lsps)] if spatial else [])
    one = _kernel(sampler, pathloss, site_xy, wrap, drop, 0, len(drop), all_lsps)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the field chunks too
    try:
        for workers in (2, 3):
            got = _kernel(sampler, pathloss, site_xy, wrap, drop, 0, len(drop), all_lsps, workers)
            _assert_rows_equal(got, one, slice(None))
    finally:
        sys.setswitchinterval(interval)
