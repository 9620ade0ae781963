"""The canonical config text, pinned byte for byte.

config_hash is the sha256 of this text and sits in every CDF header, so a
changed byte here is a changed output byte. Each case is hashed as emitted
and with the execution-only settings normalized. The "every_shape" config
sets each kind of value the text can hold: both sweeps, both distance
tables, custom ray offsets, a correlation override, a changed
decorrelation distance and the spatial switch. "python_ints" holds ints
where floats are declared, as a config built in Python may: the text
writes each value as it is held. The normalized text is the one config_hash
digests: workers and output_dir pinned to 1 and "out".
"""
import hashlib
from dataclasses import replace

import pytest

from chan3d.config import config_hash, default_config, emit_config, parse_config

EVERY_SHAPE_INI = """\
[run]
master_seed = 7
scenario = UMa
phase = 2
workers = 3
output_dir = elsewhere
carrier_hz = 3.5e9

[layout]
n_rings = 1
wrap_around = true

[antenna]
d_v_sweep = 0.5, 0.8
downtilt_sweep_deg = 6, 9.5, 12

[ssp]
n_rays = 4
ray_offsets = 0.5, -0.5, 1.25, -1.25
xpr_offdiag = sqrt_inv_kappa

[lsp_los]
esd_table = 0:0.7:0.4, 500:-0.4:0.35, 10000:-0.4:0.35

[lsp_nlos]
esa_table = 0:1.2:0.2, 300:1.1:0.15

[lsp_correlation_nlos]
ds_sf = -0.3
asd_asa = 0.4

[lsp_decorrelation]
ds = 30

[spatial]
enabled = false
n_terms = 64
"""

GOLDEN = {
    ("UMa", False): "89fa0c096c3ae5831af871916b6fe33835c95acd088a1c0f24980ec4ef9cd9a0",
    ("UMa", True): "89fa0c096c3ae5831af871916b6fe33835c95acd088a1c0f24980ec4ef9cd9a0",
    ("UMi", False): "c1f0963fdd150ccd10b943bf7f6cbaeb78ca5299963af145b726a3fc5d79cc99",
    ("UMi", True): "c1f0963fdd150ccd10b943bf7f6cbaeb78ca5299963af145b726a3fc5d79cc99",
    ("every_shape", False): "b19190ae342a5a599635af3b9e51c33480a10de1b69b88421a08c8e587257a47",
    ("every_shape", True): "a3325e27f041af02cfd83408a62e717ed2f634738a1d1f5a8fb12c814f6cc59c",
    ("python_ints", False): "019bdd77df90cd9d4ab965800a396aecc0fdf2846db3924874fff625a70883f7",
    ("python_ints", True): "019bdd77df90cd9d4ab965800a396aecc0fdf2846db3924874fff625a70883f7",
}


def _config(case, tmp_path):
    if case == "python_ints":
        cfg = default_config("UMa", master_seed=3)
        cfg.antenna.downtilt_deg = 9
        cfg.run.carrier_hz = 2_000_000_000
        return cfg
    if case == "every_shape":
        path = tmp_path / "every_shape.ini"
        path.write_text(EVERY_SHAPE_INI)
        return parse_config(str(path))
    return default_config(case)


@pytest.mark.parametrize("case, normalize", sorted(GOLDEN))
def test_emitted_text_hash(case, normalize, tmp_path):
    cfg = _config(case, tmp_path)
    if normalize:
        cfg = replace(cfg, run=replace(cfg.run, workers=1, output_dir="out"))
    digest = hashlib.sha256(emit_config(cfg).encode()).hexdigest()
    assert digest == GOLDEN[case, normalize]
    if normalize:
        assert config_hash(_config(case, tmp_path)) == digest[:12]


def test_text_ends_after_spatial_without_blank_line():
    text = emit_config(default_config("UMa"))
    assert text.endswith("\n[spatial]\nenabled = true\nn_terms = 128\n")
