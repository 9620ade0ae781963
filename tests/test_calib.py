import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chan3d.calib import (
    REPORT_COLUMNS,
    angular_spread_deg,
    attach,
    delay_spread_s,
    empirical_cdf,
    geometry_factor_db,
    rsrp_db,
    rsrp_fast_fading_db,
    top_eigenvalues,
    write_report,
)
from chan3d.antenna import element_gain_db, itu_port_pattern
from report_oracle import DropReport, geometry_factor_row_db


def test_rsrp_direct_sum():
    assert_allclose(rsrp_db(46.0, 17.0, 0.0, 100.0, 0.0), -37.0)


def test_rsrp_shifts_with_shadow_fading():
    base = rsrp_db(46.0, 17.0, 0.0, 100.0, 0.0)
    assert_allclose(rsrp_db(46.0, 17.0, 0.0, 100.0, 4.5), base - 4.5)


def test_rsrp_half_power_port_offset():
    spec = itu_port_pattern()
    tilt = math.radians(spec.theta_tilt_deg)
    bore = rsrp_db(46.0, element_gain_db(spec, 0.0, tilt), 0.0, 100.0, 0.0)
    off = rsrp_db(46.0, element_gain_db(spec, 0.0, tilt + math.radians(7.5)), 0.0, 100.0, 0.0)
    assert_allclose(bore - off, 3.0, atol=1e-9)


def test_attach_single_cell():
    assert attach([-80.0]) == 0


def test_attach_matches_bruteforce_argmax():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        values = rng.normal(-90.0, 10.0, 57)
        best = 0
        for i in range(57):
            if values[i] > values[best]:
                best = i
        assert attach(values) == best


def test_attach_tie_breaks_to_lowest_index():
    assert attach([-80.0, -80.0, -90.0]) == 0


def test_attach_shift_invariant():
    rng = np.random.default_rng(1)
    values = rng.normal(-90.0, 8.0, 57)
    assert attach(values) == attach(values + 13.5)


def test_geometry_factor_examples():
    # (1, cell) blocks: each value is the one-row oracle's, bit for bit.
    for row, expected in (
        ([-80.0, -80.0], 0.0),
        ([-80.0, -80.0, -80.0], -10.0 * math.log10(2.0)),
        ([-80.0, -90.0], 10.0),
    ):
        [gf] = geometry_factor_db([row], [0]).tolist()
        assert_allclose(gf, expected, atol=1e-12)
        assert gf == geometry_factor_row_db(row, 0)


def test_geometry_factor_common_offset_invariant():
    rng = np.random.default_rng(2)
    values = rng.normal(-90.0, 6.0, (1, 57))
    serving = attach(values)
    assert_allclose(
        geometry_factor_db(values, serving),
        geometry_factor_db(values + 7.7, serving),
        rtol=1e-12,
    )


def test_geometry_factor_isolated_ue():
    assert geometry_factor_db([[-80.0]], [0]).tolist() == [math.inf]


def test_block_attach_and_geometry_factor_match_row_oracle():
    # A block of rows, C- and F-ordered (fancy indexing over cells gives the
    # latter), with ties, an isolated row and a row of equal powers: the block
    # forms equal the one-row forms bit for bit, an F-ordered block's rows
    # summed left to right.
    rng = np.random.default_rng(3)
    block = rng.normal(-95.0, 12.0, (40, 57))
    block[1, 7] = block[1, 3] = block.max() + 1.0
    block[2] = -80.0
    for rsrp in (block, np.asfortranarray(block), block[:, np.arange(57)]):
        serving = attach(rsrp)
        assert serving.tolist() == [attach(row) for row in rsrp]
        gf = geometry_factor_db(rsrp, serving)
        left_to_right = not rsrp.flags.c_contiguous
        rows = [geometry_factor_row_db(r, s, left_to_right) for r, s in zip(rsrp, serving)]
        assert np.array_equal(gf, rows)
    isolated = np.array([[-80.0], [-90.0]])
    assert geometry_factor_db(isolated, attach(isolated)).tolist() == [math.inf, math.inf]
    assert geometry_factor_db(block[:1], attach(block[:1])).tolist() == [
        geometry_factor_row_db(block[0], attach(block[0]))
    ]


def test_angular_spread_degenerate():
    assert angular_spread_deg(np.full(5, 0.3), np.ones(5)) == 0.0


def test_angular_spread_symmetric_pair():
    x = math.radians(2.0)
    spread = angular_spread_deg(np.array([x, -x]), np.array([0.5, 0.5]))
    assert_allclose(spread, 2.0, rtol=1e-9)


def test_angular_spread_matches_direct_formula():
    rng = np.random.default_rng(3)
    angles = rng.uniform(-math.pi, math.pi, 40)
    powers = rng.dirichlet(np.ones(40))
    # Independent evaluation of the stated formula.
    c = (powers * np.cos(angles)).sum()
    s = (powers * np.sin(angles)).sum()
    mean = math.atan2(s, c)
    dev = (angles - mean + math.pi) % (2.0 * math.pi) - math.pi
    expected = math.degrees(math.sqrt(float((powers * dev**2).sum())))
    assert_allclose(angular_spread_deg(angles, powers), expected, atol=1e-10)


def test_angular_spread_wraps_deviations():
    angles = np.array([math.pi - 0.05, -math.pi + 0.05])
    spread = angular_spread_deg(angles, np.array([0.5, 0.5]))
    assert spread < 4.0  # the pair straddles the wrap, not half a turn apart


def test_delay_spread_cases():
    assert delay_spread_s([1e-7], [1.0]) == 0.0
    assert_allclose(delay_spread_s([0.0, 1e-6], [0.5, 0.5]), 0.5e-6, rtol=1e-12)
    tau = np.array([0.0, 2e-7, 9e-7])
    p = np.array([0.5, 0.3, 0.2])
    mean = (p * tau).sum() / p.sum()
    expected = math.sqrt((p * tau**2).sum() / p.sum() - mean**2)
    assert_allclose(delay_spread_s(tau, p), expected, rtol=1e-12)


def test_top_eigenvalues_scalar_channel():
    taps = np.zeros((1, 3, 1, 1), dtype=complex)
    taps[0, :, 0, 0] = [1.0, 2.0j, -1.0]
    l1, l2 = top_eigenvalues(taps)
    assert_allclose(l1, 1.0 + 4.0 + 1.0, rtol=1e-12)
    assert l2 == 0.0


def test_top_eigenvalues_rank_one():
    a = np.array([1.0, -0.5j, 0.25])
    b = np.array([2.0, 1.0j])
    taps = np.zeros((1, 1, 3, 2), dtype=complex)
    taps[0, 0] = np.outer(a, b)
    l1, l2 = top_eigenvalues(taps)
    assert l2 < 1e-10 * l1


def test_top_eigenvalues_match_dense_eigendecomposition():
    rng = np.random.default_rng(4)
    for _ in range(25):
        taps = rng.normal(size=(2, 5, 4, 2)) + 1j * rng.normal(size=(2, 5, 4, 2))
        # Oracle: build the covariance explicitly and eigendecompose.
        cov = np.zeros((4, 4), dtype=complex)
        for ti in range(2):
            for n in range(5):
                h = taps[ti, n]
                cov += h @ h.conj().T
        cov /= 2.0
        expected = np.sort(np.linalg.eigvalsh(cov))[::-1][:2]
        l1, l2 = top_eigenvalues(taps)
        assert_allclose([l1, l2], expected, rtol=1e-9)


def test_rsrp_fast_fading_unit_tap():
    taps = np.ones((1, 1, 1, 1), dtype=complex)
    assert_allclose(rsrp_fast_fading_db(0.0, taps), 0.0, atol=1e-12)


def test_rsrp_fast_fading_scales_quadratically():
    rng = np.random.default_rng(5)
    taps = rng.normal(size=(2, 3, 2, 1)) + 1j * rng.normal(size=(2, 3, 2, 1))
    base = rsrp_fast_fading_db(0.0, taps)
    scaled = rsrp_fast_fading_db(0.0, 3.0 * taps)
    assert_allclose(scaled - base, 20.0 * math.log10(3.0), rtol=1e-12)


def test_empirical_cdf_basic():
    values, probs = empirical_cdf([5.0])
    assert_allclose(values, [5.0])
    assert_allclose(probs, [1.0])
    values, probs = empirical_cdf([4.0, 2.0, 3.0, 1.0])
    assert_allclose(values, [1.0, 2.0, 3.0, 4.0])
    assert_allclose(probs, [0.25, 0.5, 0.75, 1.0])


def test_empirical_cdf_median_of_normal():
    rng = np.random.default_rng(6)
    values, probs = empirical_cdf(rng.standard_normal(10_000))
    at_zero = probs[np.searchsorted(values, 0.0) - 1]
    assert abs(at_zero - 0.5) < 0.015


def test_empirical_cdf_monotone_and_complete():
    rng = np.random.default_rng(7)
    values, probs = empirical_cdf(rng.normal(size=500))
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(np.diff(probs) > 0.0)
    assert probs[-1] == 1.0
    assert np.all((probs > 0.0) & (probs <= 1.0))


def test_empirical_cdf_drops_nonfinite():
    values, probs = empirical_cdf([1.0, math.inf, 2.0, math.nan])
    assert_allclose(values, [1.0, 2.0])
    with pytest.raises(ValueError):
        empirical_cdf([])
    with pytest.raises(ValueError):
        empirical_cdf([math.inf])


def _report_text(columns) -> str:
    buf = io.StringIO()
    write_report(columns, buf)
    return buf.getvalue()


def test_write_report_layout():
    text = _report_text(dict(
        ue_id=[0, 1], site=[3, 0], cell=[10, 1], cl_db=[-83.2, -90.0], gf_db=[4.5, -2.25],
        asd=[math.nan, 12.0], l1=[math.nan, 0.5], l2=[math.nan, 0.1],
    ))
    lines = text.splitlines()
    assert lines[0].split() == [
        "ue_id", "site", "cell", "cl_db", "gf_db",
        "asd", "asa", "esd", "esa", "ds", "l1", "l2",
    ]
    assert len(lines) == 3 and text.endswith("\n")
    first = lines[1].split()
    assert first[0] == "0" and first[1] == "3" and first[2] == "10"
    assert float(first[3]) == -83.2
    assert all(math.isnan(float(v)) for v in first[5:])
    second = lines[2].split()
    assert float(second[5]) == 12.0 and math.isnan(float(second[6]))
    assert float(second[10]) == 0.5 and float(second[11]) == 0.1


def test_write_report_matches_row_oracle():
    # Phase 1 leaves the spread and eigenvalue columns out (written as nan),
    # a UE without interferers has a +inf geometry factor, and phase-2 rows
    # carry every column; numpy and Python scalars format alike.
    rng = np.random.default_rng(4)
    n = 25
    phase1 = dict(
        ue_id=np.arange(n), site=rng.integers(0, 19, n), cell=rng.integers(0, 57, n),
        cl_db=rng.normal(-100.0, 15.0, n), gf_db=rng.normal(3.0, 8.0, n),
    )
    phase1["gf_db"][[4, 11]] = math.inf
    phase1["cl_db"][5] = -0.0
    reports = [
        DropReport(int(i), int(s), int(c), float(cl), float(gf))
        for i, s, c, cl, gf in zip(*(phase1[k] for k in REPORT_COLUMNS[:5]))
    ]
    expected = " ".join(REPORT_COLUMNS) + "\n" + "".join(r.row() + "\n" for r in reports)
    assert _report_text(phase1) == expected

    rows = [
        (i, i // 3, i + 1, -90.0 - i / 7, math.inf if i == 2 else i / 3, 12.0 + i, 40.0 / 3,
         1e-7 * i, 0.1, 3.5e-7 / (i + 1), 1.0 / (i + 3), 0.0 if i % 2 else 1e-20)
        for i in range(6)
    ]
    phase2 = dict(zip(REPORT_COLUMNS, zip(*rows)))
    reports = [DropReport(*row) for row in rows]
    expected = " ".join(REPORT_COLUMNS) + "\n" + "".join(r.row() + "\n" for r in reports)
    assert _report_text(phase2) == expected
