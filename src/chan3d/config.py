"""Run configuration: INI-style parsing, canonical emission, and domain builders.

Every key has a documented default except run.master_seed, which must be
given explicitly so runs are reproducible on purpose. `chan3d default-config`
emits the canonical reference file with all defaults spelled out.
"""
from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .antenna import (
    ArrayGeometry,
    PatternSpec,
    downtilt_weights,
    itu_port_pattern,
    uniform_planar_array,
)
from .lsp import (
    LSP_NAMES,
    DistanceTable,
    LosProbability,
    LspDistributionSpec,
    Marginal,
    PathlossCoeffs,
    PathlossModel,
)
from .ssp import RAY_OFFSETS_20, SspConfig, SubpathOffsets


class ConfigError(Exception):
    """Configuration load or validation failure; the message names the field."""


@dataclass
class RunSection:
    scenario: str = "UMa"
    phase: int = 1
    drop_mode: str = "3d"
    n_ue_per_cell: int = 30
    master_seed: int = 1
    carrier_hz: float = 2e9
    output_dir: str = "out"
    workers: int = 1
    n_time_samples: int = 1
    time_step_s: float = 1e-3


@dataclass
class LayoutSection:
    n_rings: int = 2
    isd_m: float = 500.0
    bs_height_m: float = 25.0
    p_tx_dbm: float = 46.0
    min_dist_2d_m: float = 35.0
    ue_speed_kmh: float = 3.0
    wrap_around: bool = False


@dataclass
class AntennaSection:
    pattern: str = "element"  # element | itu_port
    m_rows: int = 10
    n_cols: int = 1
    d_v: float = 0.5
    d_h: float = 0.5
    k_per_port: int = 10
    slant_deg: float = 0.0
    cross_polarized: bool = False
    polarization_model: str = "slant"  # slant | rotated
    downtilt_deg: float = 12.0
    downtilt_sweep_deg: tuple = ()
    d_v_sweep: tuple = ()
    ue_gain_dbi: float = 0.0
    # Element-pattern constants; the itu_port variant always uses its fixed set.
    g_max_dbi: float = 8.0
    a_m_db: float = 30.0
    sla_v_db: float = 30.0
    phi_3db_deg: float = 65.0
    theta_3db_deg: float = 65.0


@dataclass
class PathlossSection:
    los_intercept_db: float = 28.0
    los_exponent: float = 2.2
    los_freq_db: float = 20.0
    nlos_intercept_db: float = 13.54
    nlos_exponent: float = 3.908
    nlos_freq_db: float = 20.0
    ue_height_gain_db_per_m: float = 0.6
    indoor_penetration_db: float = 20.0
    los_prob_d0_m: float = 18.0
    los_prob_decay_m: float = 63.0


@dataclass
class SspSection:
    n_clusters: int = 20
    n_rays: int = 20
    r_tau: float = 2.5
    cluster_shadow_db: float = 3.0
    xpr_mu_db: float = -8.0
    xpr_sigma_db: float = 3.0
    xpr_offdiag: str = "sqrt_kappa"  # sqrt_kappa | sqrt_inv_kappa
    c_aod_deg: float = 5.0
    c_zod_deg: float = 3.0
    c_aoa_deg: float = 11.0
    c_zoa_deg: float = 7.0
    elevation_offset_dep_deg: float = 0.0
    elevation_offset_arr_deg: float = 0.0
    split_strongest: bool = False
    ray_offsets: tuple = ()  # custom symmetric basis; empty = shipped 20-ray set


@dataclass
class LspSection:
    sf_mu_db: float = 0.0
    sf_sigma_db: float = 6.0
    k_mu_db: float = 9.0
    k_sigma_db: float = 3.5
    ds_log10_mu: float = -6.44
    ds_log10_sigma: float = 0.39
    asd_log10_mu: float = 1.41
    asd_log10_sigma: float = 0.28
    asa_log10_mu: float = 1.87
    asa_log10_sigma: float = 0.11
    esd_table: tuple = ((0.0, 0.9, 0.49), (700.0, -0.5, 0.49), (10000.0, -0.5, 0.49))
    esd_height_slope_per_m: float = -0.01
    esa_table: tuple = ((0.0, 1.26, 0.16),)
    esa_height_slope_per_m: float = 0.0


# Documented-default cross-correlations (canonical lower-index-first pair keys).
DEFAULT_CORR_NLOS = {
    "sf_asd": -0.6, "sf_esa": -0.4, "ds_asd": 0.4, "ds_asa": 0.6,
    "sf_ds": -0.4, "asd_asa": 0.4, "ds_esd": -0.5, "asd_esd": 0.5,
    "asa_esa": 0.2,
}
DEFAULT_CORR_LOS = {
    "sf_ds": -0.4, "sf_asd": -0.5, "sf_asa": -0.5, "sf_esa": -0.8,
    "k_ds": -0.4, "k_asa": -0.2, "ds_asd": 0.4, "ds_asa": 0.8,
    "ds_esd": -0.2, "asd_esd": 0.5, "asa_esd": -0.3, "asa_esa": 0.4,
}
DEFAULT_DECORRELATION = {
    "sf": 50.0, "k": 50.0, "ds": 40.0, "asd": 50.0, "asa": 50.0,
    "esd": 50.0, "esa": 50.0,
}


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    layout: LayoutSection = field(default_factory=LayoutSection)
    antenna: AntennaSection = field(default_factory=AntennaSection)
    pathloss: PathlossSection = field(default_factory=PathlossSection)
    ssp: SspSection = field(default_factory=SspSection)
    lsp_los: LspSection = field(default_factory=LspSection)
    lsp_nlos: LspSection = field(default_factory=LspSection)
    corr_los: dict = field(default_factory=lambda: dict(DEFAULT_CORR_LOS))
    corr_nlos: dict = field(default_factory=lambda: dict(DEFAULT_CORR_NLOS))
    decorrelation: dict = field(default_factory=lambda: dict(DEFAULT_DECORRELATION))
    spatial_enabled: bool = True
    spatial_terms: int = 128

    def downtilt_sweep(self) -> tuple:
        return self.antenna.downtilt_sweep_deg or (self.antenna.downtilt_deg,)

    def d_v_sweep(self) -> tuple:
        return self.antenna.d_v_sweep or (self.antenna.d_v,)


def default_config(scenario: str = "UMa", master_seed: int = 1) -> RunConfig:
    """Scenario preset with every key at its documented default."""
    cfg = RunConfig()
    cfg.run.scenario = scenario
    cfg.run.master_seed = master_seed
    if scenario == "UMi":
        cfg.layout.isd_m = 200.0
        cfg.layout.bs_height_m = 10.0
        cfg.layout.min_dist_2d_m = 10.0
        cfg.pathloss.los_intercept_db = 32.4
        cfg.pathloss.los_exponent = 2.1
        cfg.pathloss.nlos_intercept_db = 22.4
        cfg.pathloss.nlos_exponent = 3.53
        cfg.pathloss.nlos_freq_db = 21.3
        cfg.pathloss.ue_height_gain_db_per_m = 0.3
        cfg.lsp_nlos.ds_log10_mu = -6.89
        cfg.lsp_nlos.ds_log10_sigma = 0.54
        cfg.lsp_nlos.asd_log10_mu = 1.41
        cfg.lsp_nlos.asd_log10_sigma = 0.17
        cfg.lsp_nlos.asa_log10_mu = 1.84
        cfg.lsp_nlos.asa_log10_sigma = 0.15
        cfg.lsp_nlos.esa_table = ((0.0, 0.88, 0.16),)
        cfg.lsp_los.ds_log10_mu = -7.19
        cfg.lsp_los.ds_log10_sigma = 0.40
        cfg.lsp_los.asd_log10_mu = 1.20
        cfg.lsp_los.asd_log10_sigma = 0.43
        cfg.lsp_los.asa_log10_mu = 1.75
        cfg.lsp_los.asa_log10_sigma = 0.19
        cfg.lsp_los.esa_table = ((0.0, 0.60, 0.16),)
        cfg.lsp_los.k_sigma_db = 5.0
        cfg.lsp_los.sf_sigma_db = 3.0
    elif scenario == "UMa":
        cfg.lsp_los.sf_sigma_db = 4.0
        cfg.lsp_los.ds_log10_mu = -7.03
        cfg.lsp_los.ds_log10_sigma = 0.66
        cfg.lsp_los.asd_log10_mu = 1.15
        cfg.lsp_los.asd_log10_sigma = 0.28
        cfg.lsp_los.asa_log10_mu = 1.81
        cfg.lsp_los.asa_log10_sigma = 0.20
        cfg.lsp_los.esa_table = ((0.0, 0.95, 0.16),)
        cfg.lsp_los.esd_table = ((0.0, 0.75, 0.4), (600.0, -0.5, 0.4), (10000.0, -0.5, 0.4))
    else:
        raise ConfigError(f"run.scenario: unknown scenario {scenario!r}")
    validate(cfg)
    return cfg


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_float_list(raw: str, where: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated numbers, got {raw!r}") from None


def _parse_table(raw: str, where: str) -> tuple:
    raw = raw.strip()
    if not raw:
        raise ConfigError(f"{where}: distance table cannot be empty")
    rows = []
    for chunk in raw.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where}: table rows are 'distance:mu:sigma', got {chunk!r}")
        try:
            rows.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ConfigError(f"{where}: non-numeric table entry in {chunk!r}") from None
    return tuple(rows)


def _coerce(value_raw: str, default, where: str):
    if isinstance(default, bool):
        return _parse_bool(value_raw, where)
    if isinstance(default, int):
        try:
            return int(value_raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {value_raw!r}") from None
    if isinstance(default, float):
        try:
            return float(value_raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {value_raw!r}") from None
    if isinstance(default, tuple):
        return _parse_float_list(value_raw, where)
    return value_raw.strip()


_SECTION_MAP = {
    "run": "run",
    "layout": "layout",
    "antenna": "antenna",
    "pathloss": "pathloss",
    "ssp": "ssp",
    "lsp_los": "lsp_los",
    "lsp_nlos": "lsp_nlos",
    "lsp_correlation_los": "corr_los",
    "lsp_correlation_nlos": "corr_nlos",
    "lsp_decorrelation": "decorrelation",
    "spatial": None,
}


def _canonical_pair(key: str, where: str) -> str:
    parts = key.split("_")
    if len(parts) != 2 or parts[0] not in LSP_NAMES or parts[1] not in LSP_NAMES or parts[0] == parts[1]:
        raise ConfigError(f"{where}: expected a pair of distinct LSP names, got {key!r}")
    i, j = LSP_NAMES.index(parts[0]), LSP_NAMES.index(parts[1])
    return f"{parts[0]}_{parts[1]}" if i < j else f"{parts[1]}_{parts[0]}"


def parse_config(path: str) -> RunConfig:
    """Load and validate a run configuration.

    Unknown sections or keys are rejected; every error message names the
    offending section.key. run.master_seed is the only required key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    scenario = parser.get("run", "scenario", fallback="UMa").strip()
    cfg = default_config(scenario, master_seed=1)
    seed_given = False

    for section in parser.sections():
        if section not in _SECTION_MAP:
            raise ConfigError(f"unknown config section [{section}]")
        if section in ("lsp_correlation_los", "lsp_correlation_nlos"):
            target = getattr(cfg, _SECTION_MAP[section])
            target.clear()
            for key, raw in parser.items(section):
                pair = _canonical_pair(key, f"{section}.{key}")
                value = _coerce(raw, 0.0, f"{section}.{key}")
                if not -1.0 <= value <= 1.0:
                    raise ConfigError(f"{section}.{key}: correlation must lie in [-1, 1]")
                target[pair] = value
            continue
        if section == "lsp_decorrelation":
            for key, raw in parser.items(section):
                if key not in LSP_NAMES:
                    raise ConfigError(f"{section}.{key}: unknown LSP name")
                cfg.decorrelation[key] = _coerce(raw, 0.0, f"{section}.{key}")
            continue
        if section == "spatial":
            for key, raw in parser.items(section):
                if key == "enabled":
                    cfg.spatial_enabled = _parse_bool(raw, "spatial.enabled")
                elif key == "n_terms":
                    cfg.spatial_terms = _coerce(raw, 0, "spatial.n_terms")
                else:
                    raise ConfigError(f"spatial.{key}: unknown key")
            continue

        target = getattr(cfg, _SECTION_MAP[section])
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key")
            where = f"{section}.{key}"
            if key in ("esd_table", "esa_table"):
                value = _parse_table(raw, where)
            else:
                value = _coerce(raw, known[key], where)
            setattr(target, key, value)
            if where == "run.master_seed":
                seed_given = True

    if not seed_given:
        raise ConfigError("run.master_seed: required key is missing")
    validate(cfg)
    return cfg


def validate(cfg: RunConfig):
    """Cross-field validation; raises ConfigError naming the field."""
    run = cfg.run
    if run.scenario not in ("UMa", "UMi"):
        raise ConfigError(f"run.scenario: must be UMa or UMi, got {run.scenario!r}")
    if run.phase not in (1, 2):
        raise ConfigError("run.phase: must be 1 or 2")
    if run.drop_mode not in ("3d", "legacy2d"):
        raise ConfigError("run.drop_mode: must be '3d' or 'legacy2d'")
    if run.n_ue_per_cell < 1:
        raise ConfigError("run.n_ue_per_cell: must be >= 1")
    if run.master_seed < 0:
        raise ConfigError("run.master_seed: must be non-negative")
    if run.carrier_hz <= 0:
        raise ConfigError("run.carrier_hz: must be positive")
    if run.workers < 1:
        raise ConfigError("run.workers: must be >= 1")
    if run.n_time_samples < 1:
        raise ConfigError("run.n_time_samples: must be >= 1")
    layout = cfg.layout
    if layout.isd_m <= 0:
        raise ConfigError("layout.isd_m: must be positive")
    if layout.n_rings < 0:
        raise ConfigError("layout.n_rings: must be non-negative")
    if layout.min_dist_2d_m < 0 or layout.min_dist_2d_m >= layout.isd_m / 2:
        raise ConfigError("layout.min_dist_2d_m: must be in [0, isd/2)")
    if not cfg.pathloss.los_prob_decay_m > 0:
        raise ConfigError("pathloss.los_prob_decay_m: must be positive")
    ant = cfg.antenna
    if ant.pattern not in ("element", "itu_port"):
        raise ConfigError("antenna.pattern: must be 'element' or 'itu_port'")
    if ant.polarization_model not in ("slant", "rotated"):
        raise ConfigError("antenna.polarization_model: must be 'slant' or 'rotated'")
    if ant.m_rows < 1 or ant.n_cols < 1:
        raise ConfigError("antenna.m_rows/n_cols: must be >= 1")
    if ant.k_per_port not in (1, ant.m_rows):
        raise ConfigError("antenna.k_per_port: must be 1 or m_rows")
    if ant.d_v <= 0 or ant.d_h <= 0 or any(d <= 0 for d in ant.d_v_sweep):
        raise ConfigError("antenna.d_v/d_h: spacings must be positive")
    try:
        build_tx_pattern(ant, ant.downtilt_deg)
    except ValueError as exc:
        raise ConfigError(f"antenna pattern constants: {exc}") from None
    ssp = cfg.ssp
    if ssp.n_clusters < 1 or ssp.n_rays < 1:
        raise ConfigError("ssp.n_clusters/n_rays: must be >= 1")
    if ssp.ray_offsets:
        if len(ssp.ray_offsets) != ssp.n_rays:
            raise ConfigError("ssp.ray_offsets: length must equal n_rays")
        try:
            SubpathOffsets(np.array(ssp.ray_offsets))
        except ValueError as exc:
            raise ConfigError(f"ssp.ray_offsets: {exc}") from None
    elif ssp.n_rays not in range(2, RAY_OFFSETS_20.size + 1, 2):
        # The shipped offset basis pairs +/- values, so any even prefix is symmetric.
        raise ConfigError("ssp.n_rays: must be an even count up to 20 (or give ray_offsets)")
    if ssp.split_strongest and ssp.n_rays != 20:
        raise ConfigError("ssp.split_strongest: requires the 20-ray layout")
    if ssp.xpr_offdiag not in ("sqrt_kappa", "sqrt_inv_kappa"):
        raise ConfigError("ssp.xpr_offdiag: must be sqrt_kappa or sqrt_inv_kappa")
    if ssp.r_tau <= 1.0:
        raise ConfigError("ssp.r_tau: must exceed 1")
    for name, table in (("lsp_los", cfg.lsp_los), ("lsp_nlos", cfg.lsp_nlos)):
        for key in ("esd_table", "esa_table"):
            try:
                rows = getattr(table, key)
                DistanceTable(
                    tuple(r[0] for r in rows),
                    tuple(r[1] for r in rows),
                    tuple(r[2] for r in rows),
                )
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{name}.{key}: {exc}") from None
    for name, pairs in (("lsp_correlation_los", cfg.corr_los), ("lsp_correlation_nlos", cfg.corr_nlos)):
        try:
            spec = build_lsp_spec(cfg.lsp_los, pairs, cfg.decorrelation)
            spec.mixing_factor()
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
    for key, value in cfg.decorrelation.items():
        if value <= 0:
            raise ConfigError(f"lsp_decorrelation.{key}: must be positive")
    if cfg.spatial_terms < 8:
        raise ConfigError("spatial.n_terms: must be >= 8")


def correlation_matrix(pairs: dict) -> np.ndarray:
    mat = np.eye(7)
    for key, value in pairs.items():
        a, b = key.split("_")
        i, j = LSP_NAMES.index(a), LSP_NAMES.index(b)
        mat[i, j] = mat[j, i] = value
    return mat


def build_lsp_spec(section: LspSection, corr_pairs: dict, decorrelation: dict) -> LspDistributionSpec:
    def table(rows, slope):
        return DistanceTable(
            tuple(r[0] for r in rows),
            tuple(r[1] for r in rows),
            tuple(r[2] for r in rows),
            slope,
        )

    return LspDistributionSpec(
        sf=Marginal(section.sf_mu_db, section.sf_sigma_db),
        k_factor=Marginal(section.k_mu_db, section.k_sigma_db),
        ds_log10=Marginal(section.ds_log10_mu, section.ds_log10_sigma),
        asd_log10=Marginal(section.asd_log10_mu, section.asd_log10_sigma),
        asa_log10=Marginal(section.asa_log10_mu, section.asa_log10_sigma),
        esd_log10=table(section.esd_table, section.esd_height_slope_per_m),
        esa_log10=table(section.esa_table, section.esa_height_slope_per_m),
        correlation=correlation_matrix(corr_pairs),
        decorrelation_m=dict(decorrelation),
    )


def build_pathloss(section: PathlossSection) -> PathlossModel:
    return PathlossModel(
        los=PathlossCoeffs(section.los_intercept_db, section.los_exponent, section.los_freq_db),
        nlos=PathlossCoeffs(section.nlos_intercept_db, section.nlos_exponent, section.nlos_freq_db),
        ue_height_gain_db_per_m=section.ue_height_gain_db_per_m,
        indoor_penetration_db=section.indoor_penetration_db,
    )


def build_los_model(section: PathlossSection) -> LosProbability:
    return LosProbability(section.los_prob_d0_m, section.los_prob_decay_m)


def build_ssp(section: SspSection) -> SspConfig:
    if section.ray_offsets:
        alpha = np.array(section.ray_offsets)
    else:
        alpha = RAY_OFFSETS_20[: section.n_rays]
    return SspConfig(
        n_clusters=section.n_clusters,
        n_rays=section.n_rays,
        r_tau=section.r_tau,
        cluster_shadow_db=section.cluster_shadow_db,
        xpr_mu_db=section.xpr_mu_db,
        xpr_sigma_db=section.xpr_sigma_db,
        xpr_offdiag_inverse=section.xpr_offdiag == "sqrt_inv_kappa",
        offsets=SubpathOffsets(
            alpha,
            section.c_aod_deg,
            section.c_zod_deg,
            section.c_aoa_deg,
            section.c_zoa_deg,
        ),
        elevation_offset_dep_deg=section.elevation_offset_dep_deg,
        elevation_offset_arr_deg=section.elevation_offset_arr_deg,
        split_strongest=section.split_strongest,
    )


def build_array(section: AntennaSection, d_v: float, wavelength: float) -> ArrayGeometry:
    return uniform_planar_array(
        section.m_rows,
        section.n_cols,
        d_v,
        section.d_h,
        wavelength,
        k_per_port=section.k_per_port,
        slant_deg=section.slant_deg,
        cross_polarized=section.cross_polarized,
    )


def build_tx_pattern(section: AntennaSection, downtilt_deg: float) -> PatternSpec:
    if section.pattern == "itu_port":
        return itu_port_pattern(downtilt_deg)
    return PatternSpec(
        section.g_max_dbi,
        section.a_m_db,
        section.sla_v_db,
        section.phi_3db_deg,
        section.theta_3db_deg,
        theta_tilt_deg=90.0,
    )


def tilt_weights_for(section: AntennaSection, d_v: float, downtilt_deg: float) -> np.ndarray:
    return downtilt_weights(section.m_rows, d_v, math.radians(90.0 + downtilt_deg))


def emit_config(cfg: RunConfig, normalize_execution: bool = False) -> str:
    """Canonical text form with every key explicit; parse(emit(cfg)) == cfg.

    normalize_execution pins workers/output_dir so the emitted text (and the
    hash derived from it) is invariant to execution-only settings.
    """
    out = io.StringIO()

    def fmt(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        if isinstance(value, tuple):
            return ", ".join(repr(float(v)) for v in value)
        return str(value)

    def section(name: str, obj, overrides=None):
        out.write(f"[{name}]\n")
        for f in fields(obj):
            if f.name.startswith("_"):
                continue
            value = getattr(obj, f.name)
            if overrides and f.name in overrides:
                value = overrides[f.name]
            if f.name in ("esd_table", "esa_table"):
                text = ", ".join(f"{r[0]!r}:{r[1]!r}:{r[2]!r}" for r in value)
            else:
                text = fmt(value)
            out.write(f"{f.name} = {text}\n")
        out.write("\n")

    run_overrides = {"workers": 1, "output_dir": "out"} if normalize_execution else None
    section("run", cfg.run, run_overrides)
    section("layout", cfg.layout)
    section("antenna", cfg.antenna)
    section("pathloss", cfg.pathloss)
    section("ssp", cfg.ssp)
    section("lsp_los", cfg.lsp_los)
    section("lsp_nlos", cfg.lsp_nlos)
    for name, pairs in (("lsp_correlation_los", cfg.corr_los), ("lsp_correlation_nlos", cfg.corr_nlos)):
        out.write(f"[{name}]\n")
        for key in sorted(pairs, key=lambda k: (LSP_NAMES.index(k.split("_")[0]), LSP_NAMES.index(k.split("_")[1]))):
            out.write(f"{key} = {pairs[key]!r}\n")
        out.write("\n")
    out.write("[lsp_decorrelation]\n")
    for name in LSP_NAMES:
        out.write(f"{name} = {float(cfg.decorrelation.get(name, 50.0))!r}\n")
    out.write("\n[spatial]\n")
    out.write(f"enabled = {'true' if cfg.spatial_enabled else 'false'}\n")
    out.write(f"n_terms = {cfg.spatial_terms}\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the canonical config, invariant to worker count."""
    text = emit_config(cfg, normalize_execution=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
