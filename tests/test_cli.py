import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest

import chan3d.campaign as campaign
from chan3d.campaign import run_campaign
from chan3d.cli import main
from chan3d.config import (
    ConfigError,
    config_hash,
    default_config,
    emit_config,
    parse_config,
)


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, "[run]\nmaster_seed = 42\n"))
    assert cfg.run.master_seed == 42
    assert cfg.run.scenario == "UMa"
    assert cfg.layout.isd_m == 500.0
    assert cfg.antenna.m_rows == 10


def test_missing_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(_write(tmp_path, "[run]\nscenario = UMa\n"))


def test_negative_isd_names_field(tmp_path):
    text = "[run]\nmaster_seed = 1\n\n[layout]\nisd_m = -5.0\n"
    with pytest.raises(ConfigError, match="layout.isd_m"):
        parse_config(_write(tmp_path, text))


def test_unknown_key_rejected(tmp_path):
    text = "[run]\nmaster_seed = 1\nbogus_key = 3\n"
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(_write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    text = "[run]\nmaster_seed = 1\n\n[nonsense]\nx = 1\n"
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(_write(tmp_path, text))


def test_bad_correlation_pair_rejected(tmp_path):
    text = "[run]\nmaster_seed = 1\n\n[lsp_correlation_nlos]\nds_bogus = 0.5\n"
    with pytest.raises(ConfigError, match="ds_bogus"):
        parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("section", ["lsp_correlation_los", "lsp_correlation_nlos"])
def test_correlation_pair_in_both_orders_rejected(tmp_path, section):
    # sf_ds and ds_sf name one pair; neither value may silently win.
    text = f"[run]\nmaster_seed = 1\n\n[{section}]\nsf_ds = -0.4\nds_sf = 0.3\n"
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=f"{section}.ds_sf: .*{section}.sf_ds"):
        parse_config(path)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out"), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_non_psd_correlation_rejected(tmp_path):
    text = (
        "[run]\nmaster_seed = 1\n\n[lsp_correlation_nlos]\n"
        "sf_ds = 0.9\nds_asd = 0.9\nsf_asd = -0.9\n"
    )
    with pytest.raises(ConfigError, match="positive semi-definite"):
        parse_config(_write(tmp_path, text))


def test_roundtrip_emit_parse(tmp_path):
    for scenario in ("UMa", "UMi"):
        cfg = default_config(scenario, master_seed=9)
        cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)
        cfg.run.phase = 2
        path = _write(tmp_path, emit_config(cfg), name=f"{scenario}.ini")
        assert parse_config(path) == cfg


def test_config_hash_ignores_workers():
    cfg_a = default_config("UMa", master_seed=5)
    cfg_b = default_config("UMa", master_seed=5)
    cfg_b.run.workers = 8
    cfg_b.run.output_dir = "elsewhere"
    assert config_hash(cfg_a) == config_hash(cfg_b)
    cfg_b.run.master_seed = 6
    assert config_hash(cfg_a) != config_hash(cfg_b)


def _tiny_cfg(tmp_path, sub="out", **overrides):
    cfg = default_config("UMa", master_seed=11)
    cfg.run.n_ue_per_cell = 4
    cfg.layout.n_rings = 0
    cfg.run.output_dir = str(tmp_path / sub)
    for key, value in overrides.items():
        section, field = key.split("__")
        setattr(getattr(cfg, section), field, value)
    return cfg


def test_campaign_file_count_contract(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)
    paths = run_campaign(cfg)
    names = sorted(os.path.basename(p) for p in paths)
    gf = [n for n in names if n.startswith("gf_cdf")]
    cl = [n for n in names if n.startswith("cl_cdf")]
    assert len(gf) == 3 and len(cl) == 3
    assert len([n for n in names if n.startswith("report")]) == 3


def test_campaign_deterministic_bytes(tmp_path):
    cfg_a = _tiny_cfg(tmp_path, sub="a")
    cfg_b = _tiny_cfg(tmp_path, sub="b")
    paths_a = run_campaign(cfg_a)
    paths_b = run_campaign(cfg_b)
    for pa, pb in zip(paths_a, paths_b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_campaign_cdf_files_are_valid(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    paths = run_campaign(cfg)
    gf_path = [p for p in paths if os.path.basename(p).startswith("gf_cdf")][0]
    rows = [line.split() for line in Path(gf_path).read_text().splitlines()
            if not line.startswith("#")]
    values = np.array([float(r[0]) for r in rows])
    probs = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(values) >= 0.0)
    assert np.all(np.diff(probs) > 0.0)
    assert probs[-1] == 1.0


def test_campaign_phase2_report_populated(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 2
    cfg.ssp.n_clusters = 5
    paths = run_campaign(cfg)
    report = [p for p in paths if os.path.basename(p).startswith("report")][0]
    lines = Path(report).read_text().splitlines()
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        fields = line.split()
        asd, asa, esd, esa, ds, l1, l2 = (float(v) for v in fields[5:])
        assert asd > 0 and asa > 0 and esd > 0 and esa > 0 and ds >= 0
        assert l1 >= l2 >= 0.0
    cdfs = [os.path.basename(p) for p in paths]
    for metric in ("asd", "asa", "esd", "esa", "ds", "l1", "l2"):
        assert any(name.startswith(f"{metric}_cdf") for name in cdfs)


def _tiny_phase2(tmp_path, sub, workers):
    # 2 d_v x 2 tilts: each UE's pool result is its list of four sweep-point reports.
    cfg = _tiny_cfg(tmp_path, sub=sub)
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 2
    cfg.ssp.n_clusters = 5
    cfg.antenna.d_v_sweep = (0.5, 0.8)
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)
    cfg.run.workers = workers
    return cfg


def _run_logged(cfg):
    """The campaign's files by name and the messages it logged at INFO and above."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("chan3d")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        paths = run_campaign(cfg)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    return {os.path.basename(p): Path(p).read_bytes() for p in paths}, lines


def test_campaign_phase2_pool_matches_serial(tmp_path):
    serial, _ = _run_logged(_tiny_phase2(tmp_path, "w1", 1))
    pooled, lines = _run_logged(_tiny_phase2(tmp_path, "w2", 2))
    assert sum("over 2 forked worker processes" in line for line in lines) == 1
    # Phase 2 evaluates all seven LSP fields of its one site.
    assert lines.count("slow fading: 7 spatial fields over 2 threads") == 1
    assert len(pooled) == 4 * 10  # 9 CDFs and a report per sweep point
    assert serial == pooled


def test_campaign_phase2_pool_no_larger_than_ue_count(tmp_path):
    # 6 UEs at 8 workers: the pool forks one process per UE, not eight.
    serial, _ = _run_logged(_tiny_phase2(tmp_path, "w1", 1))
    pooled, lines = _run_logged(_tiny_phase2(tmp_path, "w8", 8))
    assert sum("6 UEs over 6 forked worker processes" in line for line in lines) == 1
    assert pooled == serial


def test_campaign_phase2_without_fork_says_so(tmp_path, monkeypatch):
    # Without fork the pool spawns its workers, which get the campaign
    # context from the pool initializer; the bytes equal the one-worker run.
    import multiprocessing

    serial, _ = _run_logged(_tiny_phase2(tmp_path, "w1", 1))
    get_context = multiprocessing.get_context

    def no_fork(method):
        if method == "fork":
            raise ValueError(f"cannot find context for {method!r}")
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    spawned, lines = _run_logged(_tiny_phase2(tmp_path, "spawn", 2))
    assert sum(
        "fork start method unavailable: 6 UEs over 2 spawned worker processes" in line
        for line in lines
    ) == 1
    assert spawned == serial


def test_campaign_phase1_workers_logged_in_process(tmp_path):
    # One ring: 7 sites, and phase 1 evaluates the SF field of each (UMa's
    # SF row of the Cholesky factor is (1, 0, ...)).
    cfg = _tiny_cfg(tmp_path, layout__n_rings=1, run__n_ue_per_cell=1)
    cfg.run.workers = 2
    _, lines = _run_logged(cfg)
    assert lines.count("slow fading: 7 spatial fields over 2 threads") == 1
    cfg.run.workers = 1
    _, lines = _run_logged(cfg)
    assert lines.count("slow fading: 7 spatial fields over 1 thread") == 1


def test_campaign_threads_only_above_one_worker(tmp_path, monkeypatch):
    import threading

    def no_threads(*args, **kwargs):
        raise RuntimeError("thread started")

    monkeypatch.setattr(threading, "Thread", no_threads)
    cfg = _tiny_cfg(tmp_path, layout__n_rings=1)
    single, _ = _run_logged(cfg)
    cfg.run.workers = 2
    with pytest.raises(RuntimeError, match="thread started"):
        run_campaign(cfg)
    monkeypatch.undo()
    assert _run_logged(cfg)[0] == single


_TILTS, _SPACINGS = {"downtilt_sweep_deg": (6.0, 12.0)}, {"d_v_sweep": (0.5, 0.8)}
_K1, _ITU = {"k_per_port": 1}, {"pattern": "itu_port"}


def _sweep_cfg(tmp_path, sub, phase, antenna):
    overrides = {f"antenna__{key}": value for key, value in antenna.items()}
    return _tiny_cfg(tmp_path, sub, run__phase=phase, **overrides)


# Sweeps of which no point can change an output: the tilt moves only the
# itu_port pattern or K = M > 1 port weights; d_v moves only the element
# pattern's rows, and in phase 1 only port 0's, one element at the origin
# when K = 1. Each case lists (phase, [antenna] keys) variants.
@pytest.mark.parametrize("variants", [
    [(1, {**_K1, **_TILTS})],
    [(2, {**_K1, **_TILTS})],
    [(1, {**_ITU, **_SPACINGS}), (2, {**_ITU, **_SPACINGS})],
    [(1, {**_K1, **_SPACINGS})],
    [(2, {"m_rows": 1, **_K1, **_TILTS}), (2, {"m_rows": 1, **_K1, **_SPACINGS})],
], ids=["p1_k1_tilts", "p2_k1_tilts", "itu_port_dv", "p1_k1_dv", "m_rows_1"])
def test_sweep_that_cannot_change_an_output_is_refused(tmp_path, capsys, variants):
    # run_campaign validates an edited default_config itself, and `chan3d run`
    # exits 2; neither creates the output directory.
    for i, (phase, antenna) in enumerate(variants):
        [key] = [k for k in antenna if "sweep" in k]
        cfg = _sweep_cfg(tmp_path, f"api{i}", phase, antenna)
        refused = f"^antenna.{key}: no sweep point can change an output"
        with pytest.raises(ConfigError, match=refused):
            run_campaign(cfg)
        assert not os.path.exists(cfg.run.output_dir)
        path, out = _write(tmp_path, emit_config(cfg), name=f"run{i}.ini"), tmp_path / f"cli{i}"
        assert main(["run", "--config", path, "--output", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: antenna.{key}: ")
        assert not out.exists()


@pytest.mark.parametrize("phase, antenna", [
    (1, _TILTS), (1, {**_ITU, **_TILTS}), (2, {**_K1, **_SPACINGS}),
], ids=["k_m_tilts", "itu_port_tilts", "p2_k1_dv"])
def test_sweep_that_changes_the_tx_runs(tmp_path, phase, antenna):
    # The neighbours of the refused sweeps run, and their two points differ.
    files, _ = _run_logged(_sweep_cfg(tmp_path, "out", phase, antenna))
    reports = [data for name, data in sorted(files.items()) if name.startswith("report_")]
    assert len(reports) == 2 and reports[0] != reports[1]


def test_cli_logs_progress_to_stderr_and_warnings_under_quiet(tmp_path, capsys, monkeypatch):
    # Progress and the written paths go to stderr; --quiet keeps warnings only,
    # and a successful campaign logs none.
    text = (
        "[run]\nmaster_seed = 3\nn_ue_per_cell = 2\n\n[layout]\nn_rings = 0\n\n"
        "[antenna]\nd_v_sweep = 0.5, 0.8\n"
    )
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--output", str(tmp_path / "loud")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "sweep point d_v=0.8 tilt=12 deg: 6 UEs" in err
    assert str(tmp_path / "loud" / "report_dv0.8_tilt12.txt") in err
    assert main(["run", "--config", path, "--output", str(tmp_path / "quiet"), "-q"]) == 0
    assert capsys.readouterr().err == ""

    def warning_campaign(cfg):
        logging.getLogger("chan3d").info("progress")
        logging.getLogger("chan3d").warning("warning: logged during the run")
        return []

    monkeypatch.setattr("chan3d.cli.run_campaign", warning_campaign)
    assert main(["run", "--config", path, "--output", str(tmp_path / "warned"), "-q"]) == 0
    assert capsys.readouterr().err.splitlines() == ["warning: logged during the run"]


def test_campaign_logs_los_links_once(tmp_path):
    # 4 UEs per cell, 3 cells, one site: 12 (UE, site) links.
    _, lines = _run_logged(_tiny_cfg(tmp_path))
    found = [re.fullmatch(r"slow fading: 12 \(UE, site\) links, (\d+) LOS \((\S+)\)", line)
             for line in lines]
    found = [m for m in found if m]
    assert len(found) == 1
    n_los, frac = int(found[0].group(1)), float(found[0].group(2))
    assert 0 <= n_los <= 12 and frac == round(n_los / 12, 4)


def test_failed_report_write_leaves_no_partial_file(tmp_path, monkeypatch):
    import chan3d.campaign as campaign

    def broken(reports, fh):
        fh.write("ue_id site")
        raise RuntimeError("disk full")

    monkeypatch.setattr(campaign.calib, "write_report", broken)
    cfg = _tiny_cfg(tmp_path)
    with pytest.raises(RuntimeError, match="disk full"):
        run_campaign(cfg)
    names = os.listdir(cfg.run.output_dir)
    assert names  # the CDFs written before the report are complete
    assert not [n for n in names if n.startswith("report") or n.endswith(".tmp")]


@pytest.mark.parametrize("decay", ["0", "-63"])
def test_nonpositive_los_decay_rejected(tmp_path, decay):
    text = f"[run]\nmaster_seed = 1\n\n[pathloss]\nlos_prob_decay_m = {decay}\n"
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match="pathloss.los_prob_decay_m"):
        parse_config(path)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out"), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_split_strongest_needs_n_split_clusters(tmp_path, capsys):
    # Splitting a link's two strongest clusters needs two: one cluster used to
    # pass validation, then fail the phase-2 campaign with exit 1.
    text = (
        "[run]\nmaster_seed = 1\nphase = 2\n\n[layout]\nn_rings = 0\n\n"
        "[ssp]\nn_clusters = 1\nsplit_strongest = true\n"
    )
    path = _write(tmp_path, text)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: ssp.split_strongest: ")
    assert not (tmp_path / "out").exists()


def test_campaign_2d_vs_3d_same_xy(tmp_path):
    cfg3 = _tiny_cfg(tmp_path, sub="d3")
    cfg2 = _tiny_cfg(tmp_path, sub="d2")
    cfg2.run.drop_mode = "legacy2d"
    run_campaign(cfg3)
    run_campaign(cfg2)
    # Matched seeds keep the serving-site geometry comparable; the reports
    # may differ (heights change the metrics) but must have equal row counts.
    rows3 = (Path(cfg3.run.output_dir) / "report_dv0.5_tilt12.txt").read_text().splitlines()
    rows2 = (Path(cfg2.run.output_dir) / "report_dv0.5_tilt12.txt").read_text().splitlines()
    assert len(rows3) == len(rows2)


def test_campaign_rejects_unwritable_output(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg.run.output_dir = str(blocker)
    with pytest.raises(OSError):
        run_campaign(cfg)


def test_cli_default_config_roundtrips(tmp_path, capsys):
    # For both presets, the stdout and the --output FILE forms parse back to
    # the preset, and the written file runs a (reduced) campaign through
    # `chan3d run`.
    for scenario in ("UMa", "UMi"):
        assert main(["default-config", "--scenario", scenario]) == 0
        text = capsys.readouterr().out
        path = tmp_path / f"{scenario}_stdout.ini"
        path.write_text(text)
        assert parse_config(str(path)) == default_config(scenario, master_seed=1)
        written = tmp_path / f"{scenario}.ini"
        assert main(["default-config", "--scenario", scenario, "--output", str(written)]) == 0
        assert written.read_text() == text
        written.write_text(
            text.replace("n_ue_per_cell = 30", "n_ue_per_cell = 1").replace("n_rings = 2", "n_rings = 0")
        )
        out = tmp_path / f"{scenario}_out"
        assert main(["run", "--config", str(written), "--output", str(out), "--quiet"]) == 0
        assert sorted(os.listdir(out)) == [
            "cl_cdf_dv0.5_tilt12.txt", "gf_cdf_dv0.5_tilt12.txt", "report_dv0.5_tilt12.txt",
        ]


def test_cli_run_and_exit_codes(tmp_path):
    cfg = _tiny_cfg(tmp_path, sub="cli_out")
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(emit_config(cfg))
    code = main([
        "run", "--config", str(cfg_path), "--output", str(tmp_path / "cli_out"),
        "--quiet", "--downtilts", "9",
    ])
    assert code == 0
    assert (tmp_path / "cli_out" / "gf_cdf_dv0.5_tilt9.txt").exists()


def test_cli_seed_flag_supplies_the_required_seed(tmp_path):
    # --seed is parsed and checked as the file's master_seed would be: the
    # same bytes as the file with that seed, and without it exit code 2.
    body = "n_ue_per_cell = 2\n\n[layout]\nn_rings = 0\n"
    unseeded = _write(tmp_path, "[run]\n" + body, name="unseeded.ini")
    seeded = _write(tmp_path, "[run]\nmaster_seed = 5\n" + body, name="seeded.ini")
    flag, key = tmp_path / "flag", tmp_path / "key"
    assert main(["run", "--config", unseeded, "--seed", "5", "--output", str(flag), "-q"]) == 0
    assert main(["run", "--config", seeded, "--output", str(key), "-q"]) == 0
    names = sorted(os.listdir(key))
    assert names and sorted(os.listdir(flag)) == names
    assert all((flag / n).read_bytes() == (key / n).read_bytes() for n in names)
    assert main(["run", "--config", unseeded, "--output", str(tmp_path / "none"), "-q"]) == 2
    assert not (tmp_path / "none").exists()


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmaster_seed = 1\n\n[layout]\nisd_m = -3\n")
    assert main(["run", "--config", str(bad), "--quiet"]) == 2
    missing = tmp_path / "missing.ini"
    assert main(["run", "--config", str(missing), "--quiet"]) == 2


def test_cli_lsp_overflow_is_one_error_line(tmp_path, capsys):
    # A valid config whose 400-decade DS sigma overflows 10**x in the LSP draw.
    path = _write(tmp_path, (
        "[run]\nmaster_seed = 3\nphase = 2\nn_ue_per_cell = 10\n\n[layout]\nn_rings = 0\n\n"
        "[lsp_nlos]\nds_log10_sigma = 400\n"
    ))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the LSP draw overflowed")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_rice_factor_overflow_is_one_error_line(tmp_path, capsys, recwarn, monkeypatch, workers):
    # A valid config whose 5000 dB K sigma overflows the LOS Rice factor
    # 10**(k/10): the run names that draw and its keys, warns nothing and
    # writes nothing. Slow fading raises it, before any UE's links are
    # computed or a worker process starts.
    def unreached(*args):
        raise AssertionError("the phase-2 records were reached")

    monkeypatch.setattr(campaign, "_map_records", unreached)
    path = _write(tmp_path, (
        "[run]\nmaster_seed = 3\nphase = 2\nn_ue_per_cell = 10\n\n[layout]\nn_rings = 0\n\n"
        "[lsp_los]\nk_sigma_db = 5000\n"
    ))
    out = tmp_path / "out"
    args = ["run", "--config", path, "--output", str(out), "--workers", workers, "--quiet"]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the LOS Rice-factor draw overflowed")
    assert "[lsp_los] k_mu_db or k_sigma_db" in err[0]
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not out.exists() or not any(out.iterdir())


def test_nlos_rice_draws_that_would_overflow_are_never_raised(tmp_path, capsys):
    # NLOS links have K = 0 whatever their K draw: with a 5000 dB NLOS K
    # sigma most NLOS draws exceed 10**(k/10)'s float range, and the run,
    # whose drop has LOS and NLOS links, still succeeds.
    path = _write(tmp_path, (
        "[run]\nmaster_seed = 3\nphase = 2\nn_ue_per_cell = 10\n\n[layout]\nn_rings = 0\n\n"
        "[ssp]\nn_clusters = 5\n\n[lsp_nlos]\nk_sigma_db = 5000\n"
    ))
    assert main(["run", "--config", path, "--output", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    counts = re.search(r"slow fading: (\d+) \(UE, site\) links, (\d+) LOS", err).groups()
    n_links, n_los = map(int, counts)
    assert 0 < n_los < n_links
    assert "error" not in err


def test_cli_dead_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A phase-2 pool worker that dies (here it exits at once; in practice,
    # say, killed for memory) ends the run with one error line and exit 1.
    parent = os.getpid()

    def die(ctx, ue_index):
        assert os.getpid() != parent, "the records must run in the pool"
        os._exit(3)

    monkeypatch.setattr(campaign, "_phase2_records", die)
    path = _write(tmp_path, (
        "[run]\nmaster_seed = 3\nphase = 2\nn_ue_per_cell = 2\n\n[layout]\nn_rings = 0\n"
    ))
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--output", str(out), "--workers", "2", "-q"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a worker process ended abruptly; try fewer --workers"]
    assert not out.exists() or not any(out.iterdir())


def test_custom_ray_offsets(tmp_path):
    text = (
        "[run]\nmaster_seed = 1\n\n[ssp]\nn_rays = 4\n"
        "ray_offsets = 0.5, -0.5, 1.25, -1.25\n"
    )
    cfg = parse_config(_write(tmp_path, text))
    assert cfg.ssp.ray_offsets == (0.5, -0.5, 1.25, -1.25)
    assert list(cfg.ssp.ray_basis()) == [0.5, -0.5, 1.25, -1.25]
    bad = "[run]\nmaster_seed = 1\n\n[ssp]\nn_rays = 2\nray_offsets = 0.5, 0.7\n"
    with pytest.raises(ConfigError, match="ray_offsets"):
        parse_config(_write(tmp_path, bad, name="bad.ini"))


def test_pattern_constant_overrides(tmp_path):
    text = (
        "[run]\nmaster_seed = 1\n\n[antenna]\ng_max_dbi = 5.0\nphi_3db_deg = 80.0\n"
    )
    cfg = parse_config(_write(tmp_path, text))
    from chan3d.config import build_array

    spec = build_array(cfg.antenna, cfg.antenna.d_v, 0.15, [0.0]).pattern
    assert spec.g_max_dbi == 5.0
    assert spec.phi_3db_deg == 80.0
    bad = "[run]\nmaster_seed = 1\n\n[antenna]\ntheta_3db_deg = 0.0\n"
    with pytest.raises(ConfigError, match="pattern constants"):
        parse_config(_write(tmp_path, bad, name="badpat.ini"))


def test_campaign_itu_port_pattern(tmp_path):
    # Classic port-approximation configuration: no element virtualization,
    # downtilt carried by the pattern itself.
    cfg = _tiny_cfg(tmp_path, sub="itu")
    cfg.antenna.pattern = "itu_port"
    cfg.run.drop_mode = "legacy2d"
    paths = run_campaign(cfg)
    gf_path = [p for p in paths if os.path.basename(p).startswith("gf_cdf")][0]
    values = [float(l.split()[0]) for l in Path(gf_path).read_text().splitlines()
              if not l.startswith("#")]
    assert len(values) == 12
    assert all(np.isfinite(values))


def test_campaign_wrap_around_smoke(tmp_path):
    cfg = _tiny_cfg(tmp_path, sub="wrapped")
    cfg.layout.wrap_around = True
    paths = run_campaign(cfg)
    assert any(os.path.basename(p).startswith("gf_cdf") for p in paths)


# Values the model cannot use: non-finite numbers, negative standard deviations,
# distance tables whose breakpoints do not ascend.
@pytest.mark.parametrize("section, key, value", [
    ("run", "carrier_hz", "nan"),
    ("layout", "isd_m", "inf"),
    ("layout", "p_tx_dbm", "-inf"),
    ("ssp", "r_tau", "nan"),
    ("antenna", "d_v", "nan"),
    ("antenna", "downtilt_sweep_deg", "9, nan"),
    ("lsp_decorrelation", "ds", "inf"),
    ("lsp_correlation_nlos", "sf_ds", "nan"),
    ("lsp_los", "esd_table", "0:0.75:0.4, inf:-0.5:0.4"),
    ("ssp", "cluster_shadow_db", "-3"),
    ("ssp", "xpr_sigma_db", "-3"),
    ("lsp_los", "sf_sigma_db", "-4"),
    ("lsp_nlos", "k_sigma_db", "-0.5"),
    ("lsp_los", "ds_log10_sigma", "-0.66"),
    ("lsp_nlos", "asd_log10_sigma", "-0.1"),
    ("lsp_los", "asa_log10_sigma", "-0.2"),
    ("lsp_nlos", "esd_table", "0:0.9:0.49, 700:-0.5:-0.49"),
    ("lsp_nlos", "esd_table", "700:0.9:0.49, 0:-0.5:0.49"),
    ("lsp_los", "esa_table", "0:0.95:-0.16"),
])
def test_unusable_value_rejected_naming_key(tmp_path, section, key, value):
    text = "[run]\nmaster_seed = 1\n"
    text += f"{key} = {value}\n" if section == "run" else f"\n[{section}]\n{key} = {value}\n"
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}:")):
        parse_config(path)
    assert main(["run", "--config", path, "--output", str(tmp_path / "out"), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("downtilt_sweep_deg", "9, 9"),
    ("downtilt_sweep_deg", "6, 9, 9.0000001"),
    ("d_v_sweep", "0.5, 0.5000001"),
])
def test_colliding_sweep_suffixes_rejected(tmp_path, key, value):
    # Output files are named by f"{v:g}": two such points would write one file.
    path = _write(tmp_path, f"[run]\nmaster_seed = 1\n\n[antenna]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"antenna.{key}: .*suffix"):
        parse_config(path)


@pytest.mark.parametrize("flag, key", [
    ("--downtilts", "downtilt_sweep_deg"), ("--dv-list", "d_v_sweep"),
])
def test_cli_override_errors_name_the_key(tmp_path, capsys, flag, key):
    path = _write(tmp_path, "[run]\nmaster_seed = 1\n")
    out = str(tmp_path / "out")
    for bad in ("abc", "0.5, 0.5"):
        assert main(["run", "--config", path, "--output", out, "--quiet", flag, bad]) == 2
        assert capsys.readouterr().err.startswith(f"config error: antenna.{key}: ")
    assert main(["run", "--config", path, "--output", out, "--quiet", "--downtilts", "9,9"]) == 2
    assert not (tmp_path / "out").exists()
