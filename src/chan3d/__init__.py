"""chan3d: system-level 3D stochastic channel simulator.

Generates polarized double-directional MIMO channel realizations over a
tri-sector hexagonal deployment with 3D UE dropping, and computes the
standard slow-fading and fast-fading calibration metrics (coupling gain,
geometry factor, spread and eigenvalue CDFs).
"""
from .antenna import (
    ArrayGeometry,
    PatternSpec,
    downtilt_weights,
    element_gain_db,
    element_pattern_3gpp,
    itu_port_pattern,
    uniform_planar_array,
)
from .calib import (
    angular_spread_deg,
    attach,
    coupling_gain_db,
    delay_spread_s,
    empirical_cdf,
    geometry_factor_db,
    rsrp_db,
    rsrp_fast_fading_db,
    top_eigenvalues,
)
from .campaign import run_campaign
from .config import ConfigError, RunConfig, default_config, emit_config, parse_config
from .deploy import Drop, drop_ues, hex_layout, legacy_2d_drop
from .geom import SPEED_OF_LIGHT, GeometryError
from .lsp import (
    LspSampler,
    LspSection,
    Pathloss,
    pathloss_db,
)
from .ssp import (
    ClusterSet,
    SspConfig,
    cluster_angles,
    cluster_delays,
    cluster_powers,
    expand_subpaths,
    generate_cluster_set,
)
from .synth import LinkContext, LinkEnd, synthesize, to_ports

__version__ = "0.1.0"
