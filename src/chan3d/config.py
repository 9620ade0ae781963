"""Run configuration: one dataclass per INI section, and the generic parse,
validate and emit walks over them.

The dataclasses hold each key's name, type and default. [pathloss],
[ssp], [lsp_los]/[lsp_nlos] and [lsp_decorrelation] are the model objects
themselves (lsp.Pathloss, ssp.SspConfig, lsp.LspSection,
lsp.DecorrelationSection); per-key rules live in _CHECKS.

Every key has a documented default except run.master_seed, which must be
given explicitly so runs are reproducible on purpose. `chan3d default-config`
emits the canonical reference file with all defaults spelled out.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .antenna import (
    ArrayGeometry, PatternSpec, downtilt_weights, itu_port_pattern, uniform_planar_array,
)
from .lsp import LSP_NAMES, DecorrelationSection, LspSection, Pathloss, mixing_factor
from .ssp import N_SPLIT, RAY_OFFSETS_20, SspConfig


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
class SpatialSection:
    """Spatially correlated LSP fields, and their sum-of-sinusoids term count."""

    enabled: bool = True
    n_terms: int = 128


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


@dataclass
class RunConfig:
    """One field per INI section, in canonical order; the section is named
    after the field unless its metadata gives the INI name."""

    run: RunSection = field(default_factory=RunSection)
    layout: LayoutSection = field(default_factory=LayoutSection)
    antenna: AntennaSection = field(default_factory=AntennaSection)
    pathloss: Pathloss = field(default_factory=Pathloss)
    ssp: SspConfig = field(default_factory=SspConfig)
    lsp_los: LspSection = field(default_factory=LspSection)
    lsp_nlos: LspSection = field(default_factory=LspSection)
    # Correlation sections list only the nonzero pairs, so they are dicts.
    corr_los: dict = field(
        default_factory=lambda: dict(DEFAULT_CORR_LOS), metadata={"ini": "lsp_correlation_los"}
    )
    corr_nlos: dict = field(
        default_factory=lambda: dict(DEFAULT_CORR_NLOS), metadata={"ini": "lsp_correlation_nlos"}
    )
    decorrelation: DecorrelationSection = field(
        default_factory=DecorrelationSection, metadata={"ini": "lsp_decorrelation"}
    )
    spatial: SpatialSection = field(default_factory=SpatialSection)

    def sections(self) -> dict:
        """INI section name -> the object holding its keys, in canonical order."""
        return {f.metadata.get("ini", f.name): getattr(self, f.name) for f in fields(self)}

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
    validate(cfg)
    return cfg


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _table(text: str) -> tuple:
    rows = tuple(tuple(_number(p) for p in row.split(":")) for row in text.split(","))
    if any(len(row) != 3 for row in rows):
        raise ValueError(text)
    return rows


# Per declared field type (the annotation text): its parser, and what a parse error expected.
_KINDS = {
    "bool": (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()], "a boolean"),
    "int": (int, "an integer"),
    "float": (_number, "a finite number"),
    "str": (str, "text"),
    "tuple": (
        lambda raw: tuple(_number(p) for p in raw.split(",")) if raw else (),
        "comma-separated finite numbers",
    ),
    "Table": (_table, "comma-separated 'distance:mu:sigma' rows of finite numbers"),
}


def _parse_value(kind: str, raw: str, where: str):
    parse, expected = _KINDS[kind]
    try:
        return parse(raw.strip())
    except (ValueError, KeyError):
        raise ConfigError(f"{where}: expected {expected}, got {raw!r}") from None


def _canonical_pair(key: str, where: str) -> str:
    parts = key.split("_")
    if len(parts) != 2 or parts[0] not in LSP_NAMES or parts[1] not in LSP_NAMES or parts[0] == parts[1]:
        raise ConfigError(f"{where}: expected a pair of distinct LSP names, got {key!r}")
    i, j = LSP_NAMES.index(parts[0]), LSP_NAMES.index(parts[1])
    return f"{parts[0]}_{parts[1]}" if i < j else f"{parts[1]}_{parts[0]}"


def parse_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run configuration.

    Unknown sections or keys are rejected; every error message names the
    offending section.key. run.master_seed is the only required key; an
    override may supply it. overrides maps "section.key" to text that
    replaces the file's value, parsed as the file's values are.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    for where, raw in (overrides or {}).items():
        name, key = where.split(".")
        parser.read_dict({name: {key: raw}})
    if not parser.has_option("run", "master_seed"):
        raise ConfigError("run.master_seed: required key is missing")

    cfg = default_config(parser.get("run", "scenario", fallback="UMa").strip())
    sections = cfg.sections()
    for name in parser.sections():
        if name not in sections:
            raise ConfigError(f"unknown config section [{name}]")
        target = sections[name]
        if isinstance(target, dict):
            target.clear()
            for key, raw in parser.items(name):
                where = f"{name}.{key}"
                pair = _canonical_pair(key, where)
                if pair in target:  # given in the other order (configparser refuses repeats)
                    other = "_".join(reversed(key.split("_")))
                    raise ConfigError(f"{where}: the same pair as {name}.{other}; give it once")
                target[pair] = _parse_value("float", raw, where)
            continue
        kinds = {f.name: f.type for f in fields(target)}
        for key, raw in parser.items(name):
            if key not in kinds:
                raise ConfigError(f"{name}.{key}: unknown key")
            setattr(target, key, _parse_value(kinds[key], raw, f"{name}.{key}"))
    validate(cfg)
    return cfg


def _one_of(*allowed):
    return (lambda v, s: v in allowed), "must be " + " or ".join(map(repr, allowed))


_POSITIVE = (lambda v, s: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v, s: v >= 0, "must be non-negative")
_AT_LEAST_1 = (lambda v, s: v >= 1, "must be >= 1")
_SIGMA = (lambda v, s: v >= 0, "a standard deviation must be non-negative")
_PATTERN = (lambda v, s: v > 0, "pattern constants must be positive")


def _table_rows(rows, s) -> bool:
    """Whether a distance table's sigma column is non-negative; raises
    ValueError when its breakpoints do not ascend."""
    if [r[0] for r in rows] != sorted(r[0] for r in rows):
        raise ValueError("distance breakpoints must be ascending")
    return min(r[2] for r in rows) >= 0


def _ray_offsets(offsets, s) -> bool:
    """Whether custom ray offsets (if any) number n_rays; raises ValueError
    unless they are symmetric about zero."""
    if not offsets:
        return True
    ordered = np.sort(offsets)
    if not np.allclose(ordered, -ordered[::-1], atol=1e-12):
        raise ValueError("ray offsets must be symmetric about zero")
    return len(offsets) == s.n_rays


_TABLE = (_table_rows, "the sigma column (a standard deviation) must be non-negative")
_LSP_SIGMAS = ("sf_sigma_db", "k_sigma_db", "ds_log10_sigma", "asd_log10_sigma", "asa_log10_sigma")

# Per-key rules: "section.key" -> (test(value, section), message). A test
# that raises ValueError fails with the exception's text as the message.
_CHECKS = {
    "run.scenario": _one_of("UMa", "UMi"),
    "run.phase": _one_of(1, 2),
    "run.drop_mode": _one_of("3d", "legacy2d"),
    "run.n_ue_per_cell": _AT_LEAST_1,
    "run.master_seed": _NON_NEGATIVE,
    "run.carrier_hz": _POSITIVE,
    "run.workers": _AT_LEAST_1,
    "run.n_time_samples": _AT_LEAST_1,
    "layout.n_rings": _NON_NEGATIVE,
    "layout.isd_m": _POSITIVE,
    "layout.min_dist_2d_m": (lambda v, s: 0 <= v < s.isd_m / 2, "must be in [0, isd/2)"),
    "antenna.pattern": _one_of("element", "itu_port"),
    "antenna.polarization_model": _one_of("slant", "rotated"),
    "antenna.m_rows": _AT_LEAST_1,
    "antenna.n_cols": _AT_LEAST_1,
    "antenna.k_per_port": (lambda v, s: v in (1, s.m_rows), "must be 1 or m_rows"),
    "antenna.d_v": _POSITIVE,
    "antenna.d_h": _POSITIVE,
    "antenna.d_v_sweep": (lambda v, s: all(d > 0 for d in v), "spacings must be positive"),
    "antenna.a_m_db": _PATTERN,
    "antenna.sla_v_db": _PATTERN,
    "antenna.phi_3db_deg": _PATTERN,
    "antenna.theta_3db_deg": _PATTERN,
    "pathloss.los_prob_decay_m": _POSITIVE,
    "ssp.n_clusters": _AT_LEAST_1,
    # The shipped offset basis pairs +/- values, so any even prefix is symmetric.
    "ssp.n_rays": (
        lambda v, s: bool(s.ray_offsets) or v in range(2, RAY_OFFSETS_20.size + 1, 2),
        "must be an even count up to 20 (or give ray_offsets)",
    ),
    "ssp.ray_offsets": (_ray_offsets, "length must equal n_rays"),
    "ssp.split_strongest": (
        lambda v, s: not v or (s.n_rays == 20 and s.n_clusters >= N_SPLIT),
        f"requires the 20-ray layout and n_clusters >= {N_SPLIT}",
    ),
    "ssp.xpr_offdiag": _one_of("sqrt_kappa", "sqrt_inv_kappa"),
    "ssp.r_tau": (lambda v, s: v > 1.0, "must exceed 1"),
    "ssp.cluster_shadow_db": _SIGMA,
    "ssp.xpr_sigma_db": _SIGMA,
    **{f"{name}.{key}": _SIGMA for name in ("lsp_los", "lsp_nlos") for key in _LSP_SIGMAS},
    **{f"{name}.{key}": _TABLE for name in ("lsp_los", "lsp_nlos") for key in ("esd_table", "esa_table")},
    **{f"lsp_decorrelation.{name}": _POSITIVE for name in LSP_NAMES},
    "spatial.n_terms": (lambda v, s: v >= 8, "must be >= 8"),
}


def validate(cfg: RunConfig):
    """Check every key against its rule, then the sweeps, then the correlation
    matrices; raises ConfigError naming the field. Each sweep point needs its
    own output file suffix, and a sweep of two or more points needs a TX that
    it can change: the tilt moves only the itu_port pattern or K = M > 1 port
    weights, and d_v only the rows of the element pattern's array, at port 0 in
    phase 1 (one element at the origin when K = 1)."""
    sections = cfg.sections()
    for where, (test, message) in _CHECKS.items():
        name, key = where.split(".")
        try:
            ok = test(getattr(sections[name], key), sections[name])
        except (ValueError, IndexError) as exc:
            ok, message = False, str(exc)
        if not ok:
            raise ConfigError(f"{where}: {message}")
    a, phase_2 = cfg.antenna, cfg.run.phase == 2
    for key, moves, needs in (
        ("downtilt_sweep_deg", a.pattern == "itu_port" or a.k_per_port == a.m_rows > 1,
         "pattern = itu_port or k_per_port = m_rows > 1"),
        ("d_v_sweep", a.pattern == "element" and a.m_rows > 1 and (phase_2 or a.k_per_port > 1),
         "pattern = element, m_rows > 1, and phase 2 or k_per_port = m_rows"),
    ):
        suffixes = [f"{v:g}" for v in getattr(a, key)]  # a point names its output files
        for i, suffix in enumerate(suffixes):
            if suffix in suffixes[:i]:
                raise ConfigError(f"antenna.{key}: points share the output file suffix {suffix}; "
                                  "give distinct values")
        if len(suffixes) > 1 and not moves:
            raise ConfigError(f"antenna.{key}: no sweep point can change an output without {needs}")
    for name in ("lsp_correlation_los", "lsp_correlation_nlos"):
        for key, value in sections[name].items():
            if not -1.0 <= value <= 1.0:
                raise ConfigError(f"{name}.{key}: correlation must lie in [-1, 1]")
        try:
            mixing_factor(sections[name])
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None


def build_array(
    section: AntennaSection, d_v: float, wavelength: float, tilt: float
) -> ArrayGeometry:
    """The array at spacing d_v, K = M column ports steered to the tilt; itu_port: one element."""
    if section.pattern == "itu_port":
        return uniform_planar_array(1, 1, d_v, section.d_h, wavelength)
    weights = None
    if section.k_per_port == section.m_rows:
        weights = downtilt_weights(section.m_rows, d_v, math.radians(90.0 + tilt))
    return uniform_planar_array(
        section.m_rows,
        section.n_cols,
        d_v,
        section.d_h,
        wavelength,
        k_per_port=section.k_per_port,
        slant_deg=section.slant_deg,
        cross_polarized=section.cross_polarized,
        column_weights=weights,
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


def _format(value, kind: str) -> str:
    if kind == "Table":
        return ", ".join(":".join(map(repr, row)) for row in value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form with every key explicit; parse(emit(cfg)) == cfg."""
    blocks = []
    for name, section in cfg.sections().items():
        if isinstance(section, dict):
            order = sorted(section, key=lambda k: [LSP_NAMES.index(n) for n in k.split("_")])
            items = [(key, section[key], "float") for key in order]
        else:
            items = [(f.name, getattr(section, f.name), f.type) for f in fields(section)]
        blocks.append(f"[{name}]\n" + "".join(f"{k} = {_format(v, kind)}\n" for k, v, kind in items))
    return "\n".join(blocks)


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the canonical config, invariant to workers and output_dir."""
    pinned = replace(cfg, run=replace(cfg.run, workers=1, output_dir="out"))
    return hashlib.sha256(emit_config(pinned).encode()).hexdigest()[:12]
