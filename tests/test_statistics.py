"""Campaign-level statistics against the configured model.

Slow fading: one UMa seed-1 drop (one ring of sites, 30 UEs per cell)
without spatial correlation, so every (UE, site) link draws its LOS state
and shadow fading independently; the tolerances are four standard errors.
Spatial fields: the correlation of a slow-fading field at its decorrelation
distance, over many fields and point pairs; the tolerance is four standard
errors. Phase 2: the five drawn spreads of a drop without spatial
correlation, standardized by their configured log10 marginals, have mean 0
within four standard errors; and the reported azimuth and zenith spreads of
a small campaign against the LSPs drawn for the serving links. Every
tolerance was fixed before the first run: a failure is a finding about the
model, not about the test.
"""
import math
import os

import numpy as np
import pytest

from chan3d import campaign, lsp, ssp
from chan3d.campaign import run_campaign
from chan3d.config import default_config
from chan3d.deploy import drop_ues, hex_layout
from chan3d.lsp import LspSection, slow_fading
from chan3d.rng import STREAM_DROP, substream


@pytest.fixture(scope="module")
def drop_slow_fading():
    cfg = default_config("UMa", master_seed=1)
    cfg.layout.n_rings = 1
    cfg.run.n_ue_per_cell = 30
    cfg.spatial.enabled = False
    site_xy = hex_layout(cfg.layout.n_rings, cfg.layout.isd_m)
    drop = drop_ues(
        cfg.run.n_ue_per_cell, site_xy, substream(cfg.run.master_seed, STREAM_DROP),
        cfg.layout.isd_m, cfg.layout.min_dist_2d_m, cfg.layout.ue_speed_kmh,
    )
    slow = slow_fading(cfg, range(len(drop)), drop.xyz, drop.indoor, site_xy)
    return cfg, slow


def test_los_count_matches_los_probability(drop_slow_fading):
    cfg, slow = drop_slow_fading
    p = cfg.pathloss.los_probability(slow.d2d)
    expected, spread = p.sum(), math.sqrt(np.sum(p * (1.0 - p)))
    assert abs(np.count_nonzero(slow.los) - expected) <= 4.0 * spread


@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
def test_shadow_fading_mean_and_spread_per_los_state(drop_slow_fading, los):
    cfg, slow = drop_slow_fading
    section = cfg.lsp_los if los else cfg.lsp_nlos
    sf = slow.sf[slow.los == los]
    n, sigma = sf.size, section.sf_sigma_db
    assert n > 1
    assert abs(sf.mean() - section.sf_mu_db) <= 4.0 * sigma / math.sqrt(n)
    assert abs(sf.std(ddof=1) - sigma) <= 4.0 * sigma / math.sqrt(2.0 * n)


@pytest.fixture(scope="module", params=["UMa", "UMi"])
def phase2_lsps(request):
    # One ring, 30 UEs per cell: 630 UEs, 4410 independent (UE, site) draws,
    # about 90 of them LOS in UMa and 400 in UMi.
    cfg = default_config(request.param, master_seed=3)
    cfg.layout.n_rings = 1
    cfg.run.n_ue_per_cell = 30
    cfg.spatial.enabled = False
    site_xy = hex_layout(cfg.layout.n_rings, cfg.layout.isd_m)
    drop = drop_ues(
        cfg.run.n_ue_per_cell, site_xy, substream(cfg.run.master_seed, STREAM_DROP),
        cfg.layout.isd_m, cfg.layout.min_dist_2d_m, cfg.layout.ue_speed_kmh,
    )
    cfg.run.phase = 2  # all seven LSPs
    slow = slow_fading(cfg, range(len(drop)), drop.xyz, drop.indoor, site_xy)
    return cfg, drop.xyz[:, 2], slow


@pytest.mark.parametrize("los", [True, False], ids=["los", "nlos"])
def test_phase2_spread_draws_standardize_to_mean_zero(phase2_lsps, los):
    # (log10 x - mu) / sigma of each drawn DS, ASD, ASA, ESD and ESA is a
    # standard normal under the configured marginals: DS, ASD and ASA take
    # the section's constants, ESD and ESA their distance tables at the
    # link's 2D distance, the mean moved by the height slope. Its mean over
    # the n links of one LOS state lies within four standard errors, 4/sqrt(n).
    cfg, h_ue, slow = phase2_lsps
    section = cfg.lsp_los if los else cfg.lsp_nlos
    rows = slow.los == los
    d2d, h = slow.d2d[rows], np.broadcast_to(h_ue[:, None], slow.los.shape)[rows]
    n = d2d.size
    assert n >= 50
    for name in ("ds", "asd", "asa", "esd", "esa"):
        if name in ("esd", "esa"):
            d, mu, sigma = zip(*getattr(section, f"{name}_table"))
            slope = getattr(section, f"{name}_height_slope_per_m")
            mu, sigma = np.interp(d2d, d, mu) + slope * (h - 1.5), np.interp(d2d, d, sigma)
        else:
            mu, sigma = getattr(section, f"{name}_log10_mu"), getattr(section, f"{name}_log10_sigma")
        z = (np.log10(slow.lsps[..., lsp.LSP_NAMES.index(name)][rows]) - mu) / sigma
        assert abs(z.mean()) <= 4.0 / math.sqrt(n), (name, n, z.mean())


def test_spatial_field_correlation_at_decorrelation_distance_is_exp_minus_one():
    # Each of 200 sites keys its own SF field; with unit SF marginals and no
    # LSP cross-correlation the kernel's SF is the field itself. 1000 point
    # pairs per field, spread over a 20 km square, sit one decorrelation
    # distance apart in random directions. Over the fields the correlation
    # of exp(-d / decorrelation) is exp(-1); each field's sample correlation
    # scatters about it, and their mean must lie within four standard errors.
    cfg = default_config("UMa", master_seed=5)
    n_fields, n_pairs = 200, 1000
    cfg.lsp_los = cfg.lsp_nlos = LspSection(sf_mu_db=0.0, sf_sigma_db=1.0)
    cfg.corr_los, cfg.corr_nlos = {}, {}
    distance = cfg.decorrelation.sf
    rng = np.random.default_rng(2026)
    first = rng.uniform(-10e3, 10e3, (n_pairs, 2))
    angle = rng.uniform(-math.pi, math.pi, n_pairs)
    second = first + distance * np.column_stack([np.cos(angle), np.sin(angle)])
    xyz = np.column_stack([np.vstack([first, second]), np.full(2 * n_pairs, 1.5)])
    site_xy = np.column_stack([np.arange(n_fields) * 10.0, np.full(n_fields, 50e3)])
    slow = slow_fading(cfg, range(2 * n_pairs), xyz, np.zeros(2 * n_pairs, dtype=bool), site_xy)
    a, b = slow.sf[:n_pairs].T, slow.sf[n_pairs:].T  # (field, pair)
    r = np.array([np.corrcoef(x, y)[0, 1] for x, y in zip(a, b)])
    error = r.std(ddof=1) / math.sqrt(n_fields)
    assert error < 0.01
    assert abs(r.mean() - math.exp(-1.0)) <= 4.0 * error


# The circular-spread ceiling named by ssp._rescale_to_spread: below it the
# rescale converges to float precision.
SPREAD_CEILING_DEG = 75.0


def test_phase2_azimuth_spreads_match_drawn_lsps(tmp_path, monkeypatch):
    # With all four intra-cluster scalers zero every ray sits on its
    # cluster's angles, so each report row's ASD, ASA, ESD and ESA are the
    # spreads the cluster angles were rescaled to: the drawn LSPs of the
    # serving (UE, site), to 1e-6 relative, for targets under the ceiling.
    # A zenith spread counts only where none of the link's rescaled cluster
    # zeniths of that kind left [0, pi]: reflecting one at a pole moves it.
    drawn, rescaled = [], []
    rescale = ssp._rescale_to_spread

    def recording(*args, **kwargs):
        drawn.append(slow_fading(*args, **kwargs))
        return drawn[-1]

    def recording_rescale(angles, powers, target_rad):
        rescaled.append(rescale(angles, powers, target_rad))  # (kind, link, cluster), one call per UE
        return rescaled[-1]

    monkeypatch.setattr(campaign, "slow_fading", recording)
    monkeypatch.setattr(ssp, "_rescale_to_spread", recording_rescale)
    cfg = default_config("UMa", master_seed=1)
    cfg.layout.n_rings = 1
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 3
    cfg.run.output_dir = str(tmp_path)
    cfg.antenna.downtilt_sweep_deg = (12.0,)
    cfg.ssp.c_aod_deg = cfg.ssp.c_aoa_deg = cfg.ssp.c_zod_deg = cfg.ssp.c_zoa_deg = 0.0
    [report] = [p for p in run_campaign(cfg) if os.path.basename(p).startswith("report_")]
    [slow] = drawn
    with open(report) as fh:
        header = fh.readline().split()
        rows = [dict(zip(header, line.split())) for line in fh]
    assert len(rows) == slow.lsps.shape[0] == len(rescaled) == 63
    checked = {"asd": 0, "asa": 0, "esd": 0, "esa": 0}
    zenith_kind = {"esd": 1, "esa": 3}  # the ZOD and ZOA rows of the (AOD, ZOD, AOA, ZOA) kinds
    for row in rows:
        ue, site, cell = int(row["ue_id"]), int(row["site"]), int(row["cell"])
        for name in checked:
            target = slow.lsps[ue, site, lsp.LSP_NAMES.index(name)]
            if name in zenith_kind:
                zenith = rescaled[ue][zenith_kind[name], cell]
                if np.any((zenith < 0.0) | (zenith > math.pi)):
                    continue
            if target < SPREAD_CEILING_DEG:
                assert abs(float(row[name]) - target) <= 1e-6 * target, (ue, name)
                checked[name] += 1
    assert min(checked.values()) > 0
