"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The campaign-level criteria run the full 19-site UMa deployment at 30 UEs
per cell with the shipped defaults and a pinned seed.
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from chan3d.antenna import element_gain_db, itu_port_pattern
from chan3d.calib import angular_spread_deg, attach, delay_spread_s, top_eigenvalues
from chan3d.campaign import run_campaign
from chan3d.config import default_config
from chan3d.deploy import drop_ues, hex_layout
from chan3d.rng import substream
from chan3d.ssp import cluster_delays, cluster_powers, polarization_matrix

from antenna_oracle import element_pattern_3gpp
from synth_oracle import synthesize_link
from test_synth import _ctx, _random_clusters, _without_los_angles  # noqa: E402

D2R = math.pi / 180.0
SEED = 1
TILTS = (6.0, 9.0, 12.0)


def _report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def _gf_by_tilt(paths, d_v):
    out = {}
    for tilt in TILTS:
        path = [p for p in paths if p.endswith(f"gf_cdf_dv{d_v:g}_tilt{tilt:g}.txt")][0]
        out[tilt] = np.array(
            [float(line.split()[0]) for line in Path(path).read_text().splitlines()
             if not line.startswith("#")]
        )
    return out


def _phase1_run(output_dir, d_v, drop_mode="3d", tilts=TILTS):
    cfg = default_config("UMa", master_seed=SEED)
    cfg.run.n_ue_per_cell = 30
    cfg.run.drop_mode = drop_mode
    cfg.antenna.d_v = d_v
    cfg.antenna.downtilt_sweep_deg = tilts
    cfg.run.output_dir = str(output_dir)
    started = time.time()
    paths = run_campaign(cfg)
    return paths, time.time() - started


@pytest.fixture(scope="module")
def run_dv05(tmp_path_factory):
    return _phase1_run(tmp_path_factory.mktemp("accept_dv05"), 0.5)


@pytest.fixture(scope="module")
def run_dv08(tmp_path_factory):
    return _phase1_run(tmp_path_factory.mktemp("accept_dv08"), 0.8)


def test_criterion_1_downtilt_ordering_dv05(run_dv05):
    paths, elapsed = run_dv05
    medians = {tilt: float(np.median(v)) for tilt, v in _gf_by_tilt(paths, 0.5).items()}
    ordered = medians[12.0] > medians[9.0] and medians[12.0] > medians[6.0]
    margin = medians[12.0] - max(medians[9.0], medians[6.0])
    _report(
        1,
        ordered and margin >= 0.3 and elapsed <= 120.0,
        f"d_v=0.5: median GF {medians} (margin {margin:.2f} dB, {elapsed:.0f}s)",
    )


def test_criterion_2_downtilt_ordering_dv08(run_dv08):
    paths, _ = run_dv08
    medians = {tilt: float(np.median(v)) for tilt, v in _gf_by_tilt(paths, 0.8).items()}
    ordered = medians[9.0] > medians[6.0] and medians[9.0] > medians[12.0]
    _report(2, ordered, f"d_v=0.8: median GF {medians}")


def test_criterion_3_3d_dominates_2d(run_dv05, tmp_path):
    paths_3d, _ = run_dv05
    paths_2d, _ = _phase1_run(tmp_path, 0.5, drop_mode="legacy2d", tilts=(12.0,))
    gf_3d = _gf_by_tilt(paths_3d, 0.5)[12.0]
    gf_2d = np.array(
        [
            float(line.split()[0])
            for line in Path([p for p in paths_2d if "gf_cdf" in os.path.basename(p)][0])
            .read_text().splitlines()
            if not line.startswith("#")
        ]
    )
    percentiles = np.arange(20, 81, 5)
    diff = np.percentile(gf_3d, percentiles) - np.percentile(gf_2d, percentiles)
    _report(
        3,
        bool(np.all(diff >= 0.0)),
        f"3D-2D GF quantile gap over 20th-80th: min {diff.min():.3f} dB, max {diff.max():.3f} dB",
    )


def test_criterion_4_dropping_statistics():
    sites = hex_layout(0, 500.0)
    rng = substream(777, 1)
    n_per_cell = 33_400  # 100200 drops over 3 cells
    drop = drop_ues(n_per_cell, sites, rng, 500.0)
    n = len(drop)
    outdoor_frac = np.count_nonzero(~drop.indoor) / n
    frac_ok = abs(outdoor_frac - 0.20) <= 0.004

    allowed = {1.5 + 3.0 * k for k in range(8)}
    heights_ok = set(drop.xyz[:, 2].tolist()) <= allowed

    counts = np.bincount(drop.floor[drop.indoor], minlength=9)
    floors_ok = True
    n_in = int(np.count_nonzero(drop.indoor))
    for f in range(1, 9):
        p = sum(1.0 / x for x in range(max(f, 4), 9)) / 5.0
        sigma = math.sqrt(n_in * p * (1.0 - p))
        floors_ok &= abs(counts[f] - n_in * p) <= 3.0 * sigma
    _report(
        4,
        frac_ok and heights_ok and floors_ok,
        f"outdoor fraction {outdoor_frac:.4f}, heights within {{1.5+3k}}, floors within 3-sigma",
    )


def test_criterion_5_pattern_golden_values():
    elem = element_pattern_3gpp()
    tilt_e = elem.theta_tilt_deg * D2R
    port = itu_port_pattern()
    tilt_p = port.theta_tilt_deg * D2R
    checks = [
        (element_gain_db(elem, 0.0, tilt_e), 8.0),
        (element_gain_db(port, 0.0, tilt_p), 17.0),
        (element_gain_db(elem, 32.5 * D2R, tilt_e) - element_gain_db(elem, 0.0, tilt_e), -3.0),
        (element_gain_db(port, 0.0, tilt_p + 7.5 * D2R) - element_gain_db(port, 0.0, tilt_p), -3.0),
    ]
    ok = all(abs(float(got) - want) <= 1e-9 for got, want in checks)
    _report(5, ok, "element 8 dBi / port 17 dBi peaks; half-power offsets exactly -3 dB @1e-9")


def test_criterion_6_los_structural_suite():
    rng = np.random.default_rng(60)
    clusters = _random_clusters(rng, n_clusters=3, n_rays=3)
    ctx = _ctx(clusters)

    # K = 0 on a LOS link equals the same link with no LOS ray at all.
    k0_equal = np.allclose(
        synthesize_link(ctx, [0.4])[0, 0],
        synthesize_link(_without_los_angles(ctx), [0.4])[0, 0],
        atol=1e-15,
    )
    gate_ok = np.allclose(
        synthesize_link(_ctx(clusters, k_rice=7.0), [0.0])[0, 1],
        math.sqrt(1.0 / 8.0) * synthesize_link(ctx, [0.0])[0, 1],
        atol=1e-14,
    )
    static_taps = synthesize_link(ctx, [0.0, 2.5])
    static_ok = np.allclose(static_taps[0, 0], static_taps[1, 0], atol=1e-15)

    # Brute-force oracle at 1e-10 (re-summation with scalar loops).
    from test_synth import test_cluster_matrix_matches_bruteforce_oracle

    test_cluster_matrix_matches_bruteforce_oracle()

    # 1000 links of 12 clusters in one batch.
    power_rng = np.random.default_rng(61)
    ds = np.full(1000, 1e-7)
    delays = cluster_delays(power_rng.random((1000, 12)), ds, 2.5)
    powers = cluster_powers(delays, power_rng.normal(0.0, 3.0, (1000, 12)), ds, 2.5)
    ray = np.repeat(powers[..., None] / 20.0, 20, axis=-1)
    power_ok = bool(np.all(np.abs(ray.sum(axis=(1, 2)) - 1.0) <= 1e-12))

    pol_rng = np.random.default_rng(62)
    kappa = 10.0 ** (pol_rng.normal(-8.0, 3.0, 200) / 10.0)
    phases = pol_rng.uniform(0.0, 2.0 * math.pi, (200, 4))
    mat = polarization_matrix(kappa, phases)
    moduli_ok = (
        np.allclose(np.abs(mat[:, 0, 0]), 1.0, atol=1e-12)
        and np.allclose(np.abs(mat[:, 1, 1]), 1.0, atol=1e-12)
        and np.allclose(np.abs(mat[:, 0, 1]), np.sqrt(kappa), rtol=1e-12)
        and np.allclose(np.abs(mat[:, 1, 0]), np.sqrt(kappa), rtol=1e-12)
    )
    _report(
        6,
        k0_equal and gate_ok and static_ok and power_ok and moduli_ok,
        "K=0 equality, LOS gating, static-UE invariance, brute-force sum @1e-10, "
        "ray-power sum @1e-12, polarization moduli {1, sqrt(kappa)}",
    )


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(70)
    attach_ok = True
    for _ in range(1000):
        rsrp = rng.normal(-90.0, 8.0, 57)
        brute = max(range(57), key=lambda i: (rsrp[i], -i))
        attach_ok &= attach(rsrp) == brute

    spread_ok = True
    for _ in range(200):
        angles = rng.uniform(-math.pi, math.pi, 30)
        powers = rng.dirichlet(np.ones(30))
        c = float((powers * np.cos(angles)).sum())
        s = float((powers * np.sin(angles)).sum())
        mean = math.atan2(s, c)
        dev = (angles - mean + math.pi) % (2.0 * math.pi) - math.pi
        expected = math.degrees(math.sqrt(float((powers * dev**2).sum())))
        spread_ok &= abs(angular_spread_deg(angles, powers) - expected) <= 1e-10
        tau = np.sort(rng.uniform(0.0, 1e-6, 30))
        m1 = float((powers * tau).sum())
        ds_expected = math.sqrt(float((powers * tau**2).sum()) - m1 * m1)
        spread_ok &= abs(delay_spread_s(tau, powers) - ds_expected) <= 1e-12

    eig_ok = True
    for _ in range(50):
        taps = rng.normal(size=(1, 6, 4, 2)) + 1j * rng.normal(size=(1, 6, 4, 2))
        cov = np.zeros((4, 4), dtype=complex)
        for n in range(6):
            cov += taps[0, n] @ taps[0, n].conj().T
        expected = np.sort(np.linalg.eigvalsh(cov))[::-1][:2]
        got = top_eigenvalues(taps)
        eig_ok &= bool(np.allclose(got, expected, rtol=1e-9))
    _report(
        7,
        attach_ok and spread_ok and eig_ok,
        "attach == exhaustive argmax (1e3), spread estimators == direct formulas, "
        "eigenvalues == dense eigendecomposition @1e-9 on 4x2 channels",
    )


def test_criterion_8_worker_count_determinism(tmp_path):
    def run(workers, sub):
        cfg = default_config("UMa", master_seed=8)
        cfg.run.n_ue_per_cell = 3
        cfg.layout.n_rings = 1
        cfg.run.workers = workers
        cfg.run.output_dir = str(tmp_path / sub)
        paths = run_campaign(cfg)
        return {os.path.basename(p): Path(p).read_bytes() for p in paths}

    serial = run(1, "w1")
    parallel = run(8, "w8")
    ok = serial.keys() == parallel.keys() and all(
        serial[name] == parallel[name] for name in serial
    )
    _report(8, ok, f"{len(serial)} output files byte-identical at worker counts 1 and 8")
