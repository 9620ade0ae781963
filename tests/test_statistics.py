"""Campaign-level statistics of the slow fading against the configured model.

One UMa seed-1 drop (one ring of sites, 30 UEs per cell) without spatial
correlation, so every (UE, site) link draws its LOS state and shadow fading
independently. The tolerances are four standard errors, fixed before the
first run: a failure is a finding about the model, not about the test.
"""
import math

import numpy as np
import pytest

from chan3d.config import default_config
from chan3d.deploy import drop_ues, hex_layout
from chan3d.lsp import LspSampler
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
    sampler = LspSampler(
        (cfg.lsp_los, cfg.corr_los), (cfg.lsp_nlos, cfg.corr_nlos), cfg.decorrelation,
        cfg.run.master_seed, spatial=cfg.spatial.enabled,
    )
    slow = sampler.slow_fading(
        range(len(drop)), drop.xyz, drop.indoor, site_xy, cfg.layout.bs_height_m,
        cfg.pathloss, cfg.run.carrier_hz,
    )
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
