import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.deploy import (
    CELL_BEARINGS_DEG,
    drop_ues,
    fold_to_nearest_image,
    hex_layout,
    sample_cell_positions,
    wrap_basis,
)
from chan3d.rng import substream


def test_hex_layout_19_sites_57_cells():
    sites = hex_layout(2, 500.0)
    assert sites.shape == (19, 2)
    assert sites.shape[0] * len(CELL_BEARINGS_DEG) == 57
    assert sorted(CELL_BEARINGS_DEG) == [0.0, 120.0, 240.0]


def test_hex_layout_single_site():
    sites = hex_layout(0, 500.0)
    assert sites.shape == (1, 2)
    assert_allclose(sites[0], [0.0, 0.0])


def test_hex_layout_nearest_neighbor_distance():
    isd = 500.0
    xy = hex_layout(2, isd)
    # Brute-force pairwise distances: every site's nearest neighbor is at isd.
    for i in range(len(xy)):
        d = np.linalg.norm(xy - xy[i], axis=1)
        d[i] = np.inf
        assert abs(d.min() - isd) < 1e-9
    ring1 = xy[1:7]
    assert_allclose(np.linalg.norm(ring1, axis=1), isd, atol=1e-9)


def test_hex_layout_deterministic():
    assert np.array_equal(hex_layout(2, 500.0), hex_layout(2, 500.0))


def test_hex_layout_validation():
    with pytest.raises(ValueError):
        hex_layout(2, -1.0)
    with pytest.raises(ValueError):
        hex_layout(-1, 500.0)


def test_drop_statistics():
    sites = hex_layout(0, 500.0)
    rng = substream(1234, 1)
    n_per_cell = 34_000  # 102k UEs over 3 cells
    drop = drop_ues(n_per_cell, sites, rng, 500.0)
    n = len(drop)
    assert n == 3 * n_per_cell
    frac = np.count_nonzero(~drop.indoor) / n
    assert abs(frac - 0.2) < 0.004
    heights = set(drop.xyz[:, 2].tolist())
    allowed = {1.5 + 3.0 * k for k in range(8)}
    assert heights <= allowed
    assert max(heights) <= 22.5


def test_drop_floor_distribution():
    # Two-stage uniform model: floors drawn uniformly from {1..x}, x uniform
    # {4..8}; P(floor=f) = mean over x>=max(f,4) of 1/x / 5.
    sites = hex_layout(0, 500.0)
    rng = substream(99, 1)
    drop = drop_ues(30_000, sites, rng, 500.0)
    floors = drop.floor[drop.indoor]
    n = floors.size
    assert np.all(drop.floor[~drop.indoor] == 0)
    counts = np.bincount(floors, minlength=9)
    probs = np.zeros(9)
    for f in range(1, 9):
        probs[f] = sum(1.0 / x for x in range(max(f, 4), 9)) / 5.0
    for f in range(1, 9):
        sigma = math.sqrt(n * probs[f] * (1 - probs[f]))
        assert abs(counts[f] - n * probs[f]) < 3.0 * sigma + 1.0


def test_drop_positions_inside_cell_wedge():
    isd = 500.0
    sites = hex_layout(1, isd)
    rng = substream(5, 1)
    n_per_cell = 50
    drop = drop_ues(n_per_cell, sites, rng, isd, min_dist_2d=35.0)
    # UEs come in (site, cell, UE) order.
    i = 0
    for sxy in sites:
        for bearing in CELL_BEARINGS_DEG:
            for _ in range(n_per_cell):
                rel = drop.xyz[i, :2] - sxy
                i += 1
                d = np.linalg.norm(rel)
                assert d >= 35.0 - 1e-9
                assert d <= isd / math.sqrt(3.0) + 1e-9
                az = math.degrees(math.atan2(rel[1], rel[0]))
                span = (az - bearing + 180.0) % 360.0 - 180.0
                assert abs(span) <= 60.0 + 1e-9
    assert i == len(drop)


def test_legacy_drop_heights_and_matched_positions():
    sites = hex_layout(0, 500.0)
    drop_3d = drop_ues(200, sites, substream(7, 1), 500.0)
    drop_2d = drop_ues(200, sites, substream(7, 1), 500.0, three_d=False)
    assert np.all(drop_2d.xyz[:, 2] == 1.5)
    assert not np.any(drop_2d.indoor)
    assert np.all(drop_2d.floor == 0)
    assert np.any(drop_3d.indoor)
    assert np.array_equal(drop_3d.xyz[:, :2], drop_2d.xyz[:, :2])
    assert np.array_equal(drop_3d.velocity, drop_2d.velocity)


def test_drop_deterministic_under_seed():
    sites = hex_layout(0, 500.0)
    a = drop_ues(50, sites, substream(3, 1), 500.0)
    b = drop_ues(50, sites, substream(3, 1), 500.0)
    for name in ("xyz", "indoor", "floor", "velocity"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_drop_velocity_horizontal_3kmh():
    sites = hex_layout(0, 500.0)
    drop = drop_ues(100, sites, substream(2, 1), 500.0, speed_kmh=3.0)
    v = drop.velocity
    assert v.shape == (300, 3)
    assert np.all(v[:, 2] == 0.0)
    assert_allclose(np.hypot(v[:, 0], v[:, 1]), 3.0 / 3.6, rtol=1e-12)


def test_sample_cell_positions_respects_min_distance():
    rng = substream(8, 1)
    pts = sample_cell_positions(500, np.array([100.0, -50.0]), 120.0, 500.0, 35.0, rng)
    rel = pts - np.array([100.0, -50.0])
    assert np.all(np.hypot(rel[:, 0], rel[:, 1]) >= 35.0 - 1e-9)


def test_wrap_folding_tiles_the_layout():
    # Folded site-distance multisets are invariant when a point is shifted
    # by any lattice tiling vector, for every supported ring count.
    isd = 500.0
    for n_rings in (0, 1, 2):
        xy = hex_layout(n_rings, isd)
        basis = wrap_basis(n_rings, isd)
        n_sites = 3 * n_rings**2 + 3 * n_rings + 1
        assert_allclose(np.linalg.norm(basis[0]), isd * math.sqrt(n_sites), rtol=1e-12)
        assert_allclose(np.linalg.norm(basis[1]), isd * math.sqrt(n_sites), rtol=1e-12)

        rng = np.random.default_rng(n_rings)
        for _ in range(20):
            p = rng.uniform(-3 * isd, 3 * isd, 2)
            shift = rng.integers(-2, 3, 2) @ basis
            d_p = np.linalg.norm(fold_to_nearest_image(p - xy, basis), axis=1)
            d_q = np.linalg.norm(fold_to_nearest_image(p + shift - xy, basis), axis=1)
            assert_allclose(np.sort(d_p), np.sort(d_q), atol=1e-6)
            # Folding never increases distance.
            assert np.all(d_p <= np.linalg.norm(p - xy, axis=1) + 1e-9)


def _fold_running_best(delta, basis):
    """Reference fold: a running best over the 3x3 images, replaced only by a
    strictly shorter image, so ties keep the first image in (di, dj) order."""
    delta = np.asarray(delta, dtype=float).reshape(-1, 2)
    base = np.round(delta @ np.linalg.inv(basis))
    best = best_norm = None
    for di in (-1.0, 0.0, 1.0):
        for dj in (-1.0, 0.0, 1.0):
            image = delta - (base + np.array([di, dj])) @ basis
            norm = np.einsum("ik,ik->i", image, image)
            if best is None:
                best, best_norm = image, norm
            else:
                take = norm < best_norm
                best = np.where(take[:, None], image, best)
                best_norm = np.where(take, norm, best_norm)
    return best


def test_fold_matches_running_best_oracle():
    # Random offsets, then the tie points: half of each lattice vector and of
    # their difference (two images at exactly equal norm), half of their sum
    # and the origin.
    isd = 500.0
    for n_rings in (0, 1, 2):
        basis = wrap_basis(n_rings, isd)
        rng = np.random.default_rng(100 + n_rings)
        offsets = rng.uniform(-3.0, 3.0, (500, 2)) @ basis
        t1, t2 = basis
        ties = np.array([t1 / 2, t2 / 2, (t1 - t2) / 2, (t1 + t2) / 2, [0.0, 0.0]])
        for delta in (offsets, ties, -ties):
            folded = fold_to_nearest_image(delta, basis)
            assert np.array_equal(folded, _fold_running_best(delta, basis))


def test_wrap_around_campaign_reduces_edge_geometry_factor(tmp_path):
    from chan3d.campaign import run_campaign
    from chan3d.config import default_config

    gf_medians = {}
    for wrap in (False, True):
        cfg = default_config("UMa", master_seed=21)
        cfg.run.n_ue_per_cell = 6
        cfg.layout.wrap_around = wrap
        cfg.run.output_dir = str(tmp_path / f"wrap{int(wrap)}")
        paths = run_campaign(cfg)
        gf = [p for p in paths if p.split("/")[-1].startswith("gf_cdf")][0]
        lines = Path(gf).read_text().splitlines()
        values = [float(l.split()[0]) for l in lines if not l.startswith("#")]
        gf_medians[wrap] = float(np.median(values))
    # Wrapping adds interference images for edge UEs, so the median GF drops.
    assert gf_medians[True] < gf_medians[False]
