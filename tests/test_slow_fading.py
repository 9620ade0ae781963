"""The slow-fading array kernel against the per-link form it replaced.

`_per_link` is the scalar path the campaign took before the kernel: for one
UE, one LOS draw, one pathloss and one LSP draw per site, with the pathloss
and LSP marginals written out in scalar form and numpy's log10, exp and
power on one value at a time. The kernel must reproduce it bit for bit: over
the whole drop or a sub-range of it, at any chunk size and worker count, and
with only SF requested, when it mixes the SF row of the factor alone. Its keyed streams come from numpy's
own SeedSequence, not from the array derivation in chan3d.rng.
"""
import itertools
import logging
import math
import sys
import threading

import numpy as np
import pytest

from chan3d.config import default_config
from chan3d.deploy import drop_ues, fold_to_nearest_image, hex_layout, wrap_basis
from chan3d.geom import wrap_azimuth
import chan3d.lsp
from chan3d.lsp import LSP_NAMES, mixing_factor, slow_fading
from chan3d.rng import STREAM_DROP, STREAM_FIELD, STREAM_LOS_STATE, STREAM_LSP, substream


def _stream(seed, *key):
    """The generator of a key, straight from numpy's SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _pathloss(model, d_3d, h_ue, indoor, los, frequency_hz):
    state = "los" if los else "nlos"
    pl = (
        getattr(model, f"{state}_intercept_db")
        + 10.0 * getattr(model, f"{state}_exponent") * np.log10(d_3d)
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


def _field_at(cfg, site, lsp, x, y):
    """The (site, LSP) spatial field at one point: the scaled cosine sum of its
    waves, drawn from the stream (seed, STREAM_FIELD, site, LSP)."""
    n, rng = cfg.spatial.n_terms, _stream(cfg.run.master_seed, STREAM_FIELD, site, lsp)
    decorrelation_m = getattr(cfg.decorrelation, LSP_NAMES[lsp])
    k_mag = np.sqrt(1.0 / (1.0 - rng.random(n)) ** 2 - 1.0) / decorrelation_m
    direction = rng.uniform(0.0, 2.0 * math.pi, n)
    phase = rng.uniform(0.0, 2.0 * math.pi, n)
    kx, ky = k_mag * np.cos(direction), k_mag * np.sin(direction)
    return math.sqrt(2.0 / n) * np.cos(kx * x + ky * y + phase).sum()


def _lsps(cfg, ue_index, site, d_2d, h_ue, los, ue_xy):
    """One link's seven LSPs, and its SF from the factor's SF row alone."""
    s = cfg.lsp_los if los else cfg.lsp_nlos
    factor = mixing_factor(cfg.corr_los if los else cfg.corr_nlos)
    if cfg.spatial.enabled:
        x, y = float(ue_xy[0]), float(ue_xy[1])
        normals = np.array([_field_at(cfg, site, i, x, y) for i in range(len(LSP_NAMES))])
    else:
        normals = _stream(cfg.run.master_seed, STREAM_LSP, ue_index, site).standard_normal(7)
    z, z_sf = factor @ normals, factor[:1] @ normals
    esd_mu, esd_sigma = _table(s.esd_table, s.esd_height_slope_per_m, d_2d, h_ue)
    esa_mu, esa_sigma = _table(s.esa_table, s.esa_height_slope_per_m, d_2d, h_ue)
    return (
        s.sf_mu_db + s.sf_sigma_db * z[0],
        s.k_mu_db + s.k_sigma_db * z[1],
        np.power(10.0, s.ds_log10_mu + s.ds_log10_sigma * z[2]),
        np.power(10.0, s.asd_log10_mu + s.asd_log10_sigma * z[3]),
        np.power(10.0, s.asa_log10_mu + s.asa_log10_sigma * z[4]),
        np.power(10.0, esd_mu + esd_sigma * z[5]),
        np.power(10.0, esa_mu + esa_sigma * z[6]),
    ), s.sf_mu_db + s.sf_sigma_db * z_sf[0]


def _per_link(cfg, site_xy, wrap, ue_index, drop):
    """Per-site 2D distance, departure angles, LOS state, pathloss, LSPs and
    SF alone (from the factor's SF row) of one UE."""
    ue_xy = np.array([float(v) for v in drop.xyz[ue_index, :2]])
    h_ue, indoor = float(drop.xyz[ue_index, 2]), bool(drop.indoor[ue_index])
    delta = ue_xy - site_xy
    if wrap is not None:
        delta = fold_to_nearest_image(delta, wrap)
    d2d = np.hypot(delta[:, 0], delta[:, 1])
    dz = h_ue - cfg.layout.bs_height_m
    d3d = np.hypot(d2d, dz)
    az_dep = np.arctan2(delta[:, 1], delta[:, 0])
    zen_dep = np.arccos(np.clip(dz / d3d, -1.0, 1.0))
    los = np.empty(site_xy.shape[0], dtype=bool)
    pl = np.empty(site_xy.shape[0])
    lsps = np.empty((site_xy.shape[0], len(LSP_NAMES)))
    sf_alone = np.empty(site_xy.shape[0])
    for s in range(site_xy.shape[0]):
        d0, decay = cfg.pathloss.los_prob_d0_m, cfg.pathloss.los_prob_decay_m
        p_los = min(1.0, np.exp(-(float(d2d[s]) - d0) / decay))
        los[s] = _stream(cfg.run.master_seed, STREAM_LOS_STATE, ue_index, s).random() < p_los
        pl[s] = _pathloss(
            cfg.pathloss, float(d3d[s]), h_ue, indoor, bool(los[s]), cfg.run.carrier_hz
        )
        lsps[s], sf_alone[s] = _lsps(cfg, ue_index, s, float(d2d[s]), h_ue, bool(los[s]), ue_xy)
    return d2d, az_dep, zen_dep, los, pl, lsps, sf_alone


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
    if correlation is not None:
        cfg.corr_los = cfg.corr_nlos = correlation
    cfg.spatial.enabled = spatial
    wrap = wrap_basis(1, cfg.layout.isd_m) if wrap_around else None
    return cfg, site_xy, wrap, drop


def _kernel(cfg, site_xy, wrap, drop, start, stop, all_lsps, workers=1):
    """slow_fading over UEs start..stop, in phase 2 (all LSPs) or phase 1 (SF only)."""
    cfg.run.phase, cfg.run.workers = (2 if all_lsps else 1), workers
    return slow_fading(
        cfg, range(start, stop), drop.xyz[start:stop], drop.indoor[start:stop], site_xy, wrap
    )


FIELDS = ("d2d", "az_dep", "zen_dep", "los", "pl", "sf", "lsps", "los_dirs", "rice_k")


def _assert_rows_equal(got, whole, rows):
    for name in FIELDS:
        value = getattr(whole, name)
        if value is None:
            assert getattr(got, name) is None
        else:
            assert np.array_equal(getattr(got, name), value[rows]), name


def _small_chunks(monkeypatch):
    # 3 UEs per link chunk at 7 sites and 5 UEs per field chunk (FIELD_CHUNK
    # counts cosines: 5 rows of 128 terms): the 63-UE drop and its
    # sub-ranges span several chunks of each kind, and chunk edges fall
    # inside them.
    monkeypatch.setattr(chan3d.lsp, "LINK_CHUNK", 3 * 7)
    monkeypatch.setattr(chan3d.lsp, "FIELD_CHUNK", 5 * 128)


class _CosineCalls:
    """A stand-in for chan3d.lsp's numpy that records the rows of each field
    chunk's cosine call (the 2D ones; field_waves' direction cosines are 1D)
    and calls on_chunk first."""

    def __init__(self, on_chunk=lambda: None):
        self.rows, self.on_chunk = [], on_chunk

    def __getattr__(self, name):
        return getattr(np, name)

    def cos(self, x, *args, **kwargs):
        if np.ndim(x) == 2:
            self.on_chunk()
            self.rows.append(x.shape[0])
        return np.cos(x, *args, **kwargs)


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
    cfg, site_xy, wrap, drop = _setup(spatial, wrap_around, correlation)
    if correlation is not None:
        factor = mixing_factor(cfg.corr_nlos)
        assert np.any(np.triu(factor, 1) != 0.0)
        assert np.count_nonzero(factor[0]) > 1

    rows = [_per_link(cfg, site_xy, wrap, i, drop) for i in range(len(drop))]
    expected = [np.array(column) for column in zip(*rows)]
    d2d, az_dep, zen_dep, los, pl, lsps, sf_alone = expected
    assert 0 < np.count_nonzero(los) < los.size
    # Phase 1 mixes the SF row alone. It rounds as row 0 of the full mix
    # where that row is (f, 0, ..., 0), and may differ in the last bit where
    # the factor mixes several normals into SF.
    assert np.array_equal(sf_alone, lsps[..., 0]) or correlation is not None

    full = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), True)
    sf_only = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), False)
    _small_chunks(monkeypatch)
    chunked = [_kernel(cfg, site_xy, wrap, drop, 0, len(drop), all_lsps)
               for all_lsps in (True, False)]
    for got in (full, sf_only, *chunked):
        assert np.array_equal(got.d2d, d2d)
        assert np.array_equal(got.az_dep, az_dep)
        assert np.array_equal(got.zen_dep, zen_dep)
        assert np.array_equal(got.los, los)
        assert np.array_equal(got.pl, pl)
        assert np.array_equal(got.sf, lsps[..., 0] if got.lsps is not None else sf_alone)
    for got in (sf_only, chunked[1]):
        assert got.lsps is None and got.los_dirs is None and got.rice_k is None
    assert np.array_equal(full.lsps, lsps) and np.array_equal(chunked[0].lsps, lsps)

    split = 40  # two sub-ranges of unequal size
    for whole in (full, sf_only):
        all_lsps = whole.lsps is not None
        for start, stop in ((0, split), (split, len(drop))):
            part = _kernel(cfg, site_xy, wrap, drop, start, stop, all_lsps)
            _assert_rows_equal(part, whole, slice(start, stop))


@pytest.mark.parametrize("wrap_around", [True, False], ids=["wrap", "nowrap"])
def test_los_dirs_and_rice_k_equal_per_site_form(wrap_around):
    # A 2-ring phase-2 drop: 114 UEs toward 19 sites, LOS and NLOS links.
    # The LOS departure is the phase-1 departure (az_dep, zen_dep), one
    # rounding for both phases; the arrival is its reverse. Each Rice factor
    # is 10**(K / 10) of the link's K in dB where LOS, else 0.
    cfg = default_config("UMa", master_seed=23)
    site_xy = hex_layout(2, cfg.layout.isd_m)
    drop = drop_ues(2, site_xy, substream(23, STREAM_DROP), cfg.layout.isd_m)
    wrap = wrap_basis(2, cfg.layout.isd_m) if wrap_around else None
    slow = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), True)
    assert 0 < np.count_nonzero(slow.los) < slow.los.size
    az = wrap_azimuth(slow.az_dep)
    expected = np.stack([az, slow.zen_dep, wrap_azimuth(az + math.pi), math.pi - slow.zen_dep], -1)
    assert np.array_equal(slow.los_dirs, expected)
    rice_k = [[np.power(10.0, k_db / 10.0) if los else 0.0 for k_db, los in zip(*row)]
              for row in zip(slow.lsps[..., 1].tolist(), slow.los.tolist())]
    assert np.array_equal(slow.rice_k, rice_k)
    assert slow.los_dirs.shape == (len(drop), 19, 4) and slow.rice_k.shape == (len(drop), 19)
    sf_only = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), False)
    assert sf_only.los_dirs is None and sf_only.rice_k is None
    assert np.array_equal(sf_only.az_dep, slow.az_dep) and np.array_equal(sf_only.zen_dep, slow.zen_dep)


@pytest.mark.parametrize("spatial", [True, False], ids=["spatial", "keyed"])
@pytest.mark.parametrize("all_lsps", [True, False], ids=["all-lsps", "sf-only"])
def test_kernel_bytes_equal_at_any_thread_count(spatial, all_lsps, monkeypatch, caplog):
    # The calling thread is one of the workers: at workers 1, 2 and 3 the
    # kernel starts workers - 1 threads over its fields (none without
    # fields), logs the true thread count, and returns the same bytes.
    _small_chunks(monkeypatch)
    cfg, site_xy, wrap, drop = _setup(spatial, True, None)
    fields, started = [], []

    def recording_waves(cfg, jobs):
        fields.extend(jobs)  # the (site, LSP) of each field
        return waves(cfg, jobs)

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    waves = chan3d.lsp.field_waves
    monkeypatch.setattr(chan3d.lsp, "field_waves", recording_waves)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    caplog.set_level(logging.INFO, logger="chan3d")
    one = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), all_lsps)
    n_lsps = len(LSP_NAMES) if all_lsps else 1  # UMa's SF row of the Cholesky factor is (1, 0, ...)
    assert fields == ([(s, i) for s in range(site_xy.shape[0]) for i in range(n_lsps)] if spatial else [])
    n_fields = len(fields)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the field chunks too
    try:
        for workers in (1, 2, 3):
            started.clear(), caplog.clear()
            got = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), all_lsps, workers)
            _assert_rows_equal(got, one, slice(None))
            threads = workers if spatial else 1
            assert len(started) == threads - 1
            assert not any(thread.is_alive() for thread in started)
            assert f"slow fading: {n_fields} spatial fields over {threads} thread" in caplog.text
    finally:
        sys.setswitchinterval(interval)


def test_kernel_raises_a_field_thread_error(monkeypatch):
    # A field that fails on a started thread fails the kernel call: its rows
    # would otherwise be left unwritten.
    cfg, site_xy, wrap, drop = _setup(True, True, None)

    def failing_waves(cfg, jobs):
        return [(kx, ky, phase[:2] if site == 3 else phase)
                for (site, _), (kx, ky, phase) in zip(jobs, waves(cfg, jobs))]

    waves = chan3d.lsp.field_waves
    monkeypatch.setattr(chan3d.lsp, "field_waves", failing_waves)
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match="broadcast"):
            _kernel(cfg, site_xy, wrap, drop, 0, len(drop), True, workers)


@pytest.mark.parametrize("spatial", [True, False], ids=["spatial", "keyed"])
@pytest.mark.parametrize("all_lsps", [True, False], ids=["all-lsps", "sf-only"])
def test_kernel_bytes_equal_at_any_chunk_size(spatial, all_lsps, monkeypatch):
    # Field chunks of one UE row, the default, and more cosines than the
    # whole drop; link chunks of one UE row, the default, and all links.
    cfg, site_xy, wrap, drop = _setup(spatial, True, None)
    whole = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), all_lsps)
    n_terms, n_site = cfg.spatial.n_terms, site_xy.shape[0]
    field_chunks = (n_terms, chan3d.lsp.FIELD_CHUNK, len(drop) * n_terms + 1)
    link_chunks = (n_site, chan3d.lsp.LINK_CHUNK, len(drop) * n_site)
    for field_chunk, link_chunk in itertools.product(field_chunks, link_chunks):
        monkeypatch.setattr(chan3d.lsp, "FIELD_CHUNK", field_chunk)
        monkeypatch.setattr(chan3d.lsp, "LINK_CHUNK", link_chunk)
        for workers in (1, 2):
            got = _kernel(cfg, site_xy, wrap, drop, 0, len(drop), all_lsps, workers)
            _assert_rows_equal(got, whole, slice(None))


def test_kernel_stops_its_fields_when_the_link_stage_fails(monkeypatch):
    # The started thread is held in its first field chunk until pathloss
    # fails on the calling thread; it then finishes that field and starts
    # no other, where it used to evaluate all 21 before the error arrived.
    _small_chunks(monkeypatch)
    cfg, site_xy, wrap, drop = _setup(True, True, None)
    in_field, failing = threading.Event(), threading.Event()

    def first_chunk():
        if not in_field.is_set():
            in_field.set()
            assert failing.wait(10.0)

    def failing_pathloss(*args, **kwargs):
        assert in_field.wait(10.0)
        failing.set()
        raise RuntimeError("pathloss failed")

    calls = _CosineCalls(first_chunk)
    monkeypatch.setattr(chan3d.lsp, "np", calls)
    monkeypatch.setattr(chan3d.lsp, "pathloss_db", failing_pathloss)
    with pytest.raises(RuntimeError, match="pathloss failed"):
        _kernel(cfg, site_xy, wrap, drop, 0, len(drop), True, workers=2)
    assert calls.rows == [5] * 12 + [3]  # one field of the 63 UEs, 5 rows a chunk


@pytest.mark.parametrize("n_terms", [128, 8])
def test_field_chunks_hold_at_least_32k_cosines(n_terms, monkeypatch):
    # The two-worker phase-1 benchmark settings: 1710 UEs, 19 SF fields. A
    # field chunk releases the GIL for its cosines only; each chunk of at
    # least 32k cosines (256 rows at 128 terms, all 1710 UEs at 8) keeps
    # the threads from trading the GIL back and forth.
    cfg = default_config("UMa", master_seed=1)
    site_xy = hex_layout(cfg.layout.n_rings, cfg.layout.isd_m)
    drop = drop_ues(30, site_xy, substream(1, STREAM_DROP), cfg.layout.isd_m, three_d=False)
    cfg.spatial.n_terms, cfg.run.workers = n_terms, 2
    calls = _CosineCalls()
    monkeypatch.setattr(chan3d.lsp, "np", calls)
    wrap = wrap_basis(cfg.layout.n_rings, cfg.layout.isd_m)
    slow_fading(cfg, range(len(drop)), drop.xyz, drop.indoor, site_xy, wrap)
    n_ue, n_fields = len(drop), site_xy.shape[0]
    rows = max(1, chan3d.lsp.FIELD_CHUNK // n_terms)
    assert (n_ue, n_fields) == (1710, 19) and rows * n_terms >= 32768
    assert len(calls.rows) == n_fields * math.ceil(n_ue / rows)
    assert max(calls.rows) == min(rows, n_ue)
    assert len(calls.rows) == n_fields * (7 if n_terms == 128 else 1)
