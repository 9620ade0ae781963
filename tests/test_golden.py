"""Golden output hashes: the sha256 of every file written by small pinned campaigns.

A refactor that changes no model must leave these bytes alone. A change that
alters the model on purpose updates the hashes in the same commit and says
so in CHANGES.md. The hashes were recorded with Python 3.11 and numpy 2.4 on
x86-64; another floating-point library may round differently.
"""
import hashlib
import os

import pytest

from chan3d.campaign import run_campaign
from chan3d.config import default_config


def _p1_3d_element(cfg):
    cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)


def _p1_legacy2d_wrap_itu(cfg):
    cfg.run.drop_mode = "legacy2d"
    cfg.layout.wrap_around = True
    cfg.antenna.pattern = "itu_port"
    cfg.antenna.downtilt_sweep_deg = (6.0, 12.0)


def _p1_no_spatial(cfg):
    cfg.spatial_enabled = False
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)


def _p2_reduced(cfg):
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)


def _p2_doppler_wrap(cfg):
    # Times other than 0 carry the UE velocity into the taps; wrap-around
    # folds the phase-2 link geometry.
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.run.n_time_samples = 3
    cfg.layout.wrap_around = True
    cfg.antenna.downtilt_sweep_deg = (12.0,)


CASES = {
    "p1_3d_element": (21, _p1_3d_element),
    "p1_legacy2d_wrap_itu": (22, _p1_legacy2d_wrap_itu),
    "p1_no_spatial": (23, _p1_no_spatial),
    "p2_reduced": (24, _p2_reduced),
    "p2_doppler_wrap": (25, _p2_doppler_wrap),
}


def golden_config(name, output_dir):
    """The pinned config of one golden case: UMa, one ring, 3 UEs per cell."""
    seed, adjust = CASES[name]
    cfg = default_config("UMa", master_seed=seed)
    cfg.layout.n_rings = 1
    cfg.run.n_ue_per_cell = 3
    cfg.run.output_dir = str(output_dir)
    adjust(cfg)
    return cfg


def output_hashes(paths):
    return {
        os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest() for p in paths
    }


GOLDEN = {
    "p1_3d_element": {
        "cl_cdf_dv0.5_tilt12.txt":
            "49241724f72a362f3b4aad99d3a9c7c01b934d4d708a0cebc93997edb40415eb",
        "cl_cdf_dv0.5_tilt6.txt":
            "9266ba3d483f36cb1f8e258949c6eae372f32232ad112fc76e187c7f5f9d1cd8",
        "cl_cdf_dv0.5_tilt9.txt":
            "4c30f2a1e4f704c07274e8fc53c580ef619a9e8e1d275fe4b625e6c7de55c02b",
        "gf_cdf_dv0.5_tilt12.txt":
            "2be4ca6d8d168bf869589148300e5c34fd86bbde4c712d84c26222cf2b3c82a3",
        "gf_cdf_dv0.5_tilt6.txt":
            "678d5f79db8062beef77b6596de91a95fcc2d507cd6b4084ac4af1e451532dbb",
        "gf_cdf_dv0.5_tilt9.txt":
            "0428d2d89266caeeda592b5fad6a0e209160cfea80bc827fc5855f7e1a69c728",
        "report_dv0.5_tilt12.txt":
            "41ddc9b9e736d7e0874d288afb0a6a62547b12b9d8ec28efe2f87fa1a1f76c2c",
        "report_dv0.5_tilt6.txt":
            "42e4ac65b5cdea22f5aac73a333d28b96006770319094cc334b6e2708b569151",
        "report_dv0.5_tilt9.txt":
            "0463dbc9888c4bee8e45d1cf36029c8a95815ae5c75a4fe887f7340d526e48cc",
    },
    "p1_legacy2d_wrap_itu": {
        "cl_cdf_dv0.5_tilt12.txt":
            "891d92750a719a79a5fa705d1d64a8b0141a1ae6f10d693ef22c094e1f579e10",
        "cl_cdf_dv0.5_tilt6.txt":
            "dd5b123be44c3002a789f52a572435d185c62654977c8af646c4390919e3eec1",
        "gf_cdf_dv0.5_tilt12.txt":
            "c194e62f54c3270b15d9091bb7e68cdbb16702053a0ddbeacc5ce3557a53870b",
        "gf_cdf_dv0.5_tilt6.txt":
            "44403242860fe170a396c1e4967874e70a450d4f1334a294c8b5d972b75c69ba",
        "report_dv0.5_tilt12.txt":
            "5a7504e0b71915f67c44f2f934b7dfba6bbee15bc58ef5cce5a74499d24281c5",
        "report_dv0.5_tilt6.txt":
            "c68ee2ab45b3cc75b56b3e7d11942006a64d1e5fab9da887a3e89546acafce80",
    },
    "p1_no_spatial": {
        "cl_cdf_dv0.5_tilt12.txt":
            "d4d7a8fb4bac737687e80aca624f9cf01151459b3e1fbe1eec3691f193849aa4",
        "cl_cdf_dv0.5_tilt9.txt":
            "de32d774d92928f061a42ad6c531855f391ba86f5e60798320e09016b5f5b4d9",
        "gf_cdf_dv0.5_tilt12.txt":
            "7657e961f67257d01b8575a39854cc83a027ed2d4d4897674a88c59f26aa028a",
        "gf_cdf_dv0.5_tilt9.txt":
            "21d38dc3464d838dab0103c88f677cd0fffb59448a4a2bc3b9e70b9df7346324",
        "report_dv0.5_tilt12.txt":
            "0a6defdc997e9b46fc195403029a6125c2ee34392cb76e941edbbf500e2aaa80",
        "report_dv0.5_tilt9.txt":
            "dacc34ad642d0d4ccc1c0d13ca598f018ec14a91fd61d32aab6a330f4e14e156",
    },
    "p2_reduced": {
        "asa_cdf_dv0.5_tilt12.txt":
            "b5a130bdfdc5c95b21dfc4fa3ceacf3a3796e31b3d880f5ebc3320960be0721b",
        "asa_cdf_dv0.5_tilt9.txt":
            "6900fefe5513bb92e01ef7e1e30514789d77af7d14eb3703721dfc2705117e48",
        "asd_cdf_dv0.5_tilt12.txt":
            "cce5b2dae09ca6684438ebc8227d9526741174c8554a0b6e736f708e79ee2a82",
        "asd_cdf_dv0.5_tilt9.txt":
            "23adf1a59e5df92a261ec8cd58eaa0584d21629e2d30aa9ad68459ba03d82626",
        "cl_cdf_dv0.5_tilt12.txt":
            "4af34b463c0b576339670437f3af295c09f28979a6350288b2caabb5d4e08d0c",
        "cl_cdf_dv0.5_tilt9.txt":
            "173222d65628f9dedd465665256d442aa17a77070a3932841375f0ee7a07fbf9",
        "ds_cdf_dv0.5_tilt12.txt":
            "0cbac7ac426fd2f705ffdc5f089aa1577445a9f79db31109536537141edfb067",
        "ds_cdf_dv0.5_tilt9.txt":
            "8fad4d14bec8d8c11b53e857b59c2b20e9b5deace84030c12235acae590dabf4",
        "esa_cdf_dv0.5_tilt12.txt":
            "f4c56518a46a88ce52b08ccc988a5b571d4f582f77aa84adcd3d3f72bb5c762e",
        "esa_cdf_dv0.5_tilt9.txt":
            "39729aba1c4eb9ba546ab359a09af591052f9c8bf401177637a5c9aae2bec223",
        "esd_cdf_dv0.5_tilt12.txt":
            "7ebdf6dd7311c8b4274483de80256b68eac8dd4435f38881bfb578e3c0c69b5c",
        "esd_cdf_dv0.5_tilt9.txt":
            "603b1f60c0b15011af0b49df09b1f12a682bf73ff237303c70331c30cfb136c3",
        "gf_cdf_dv0.5_tilt12.txt":
            "7b41f93ea58c28169f689a7ae81d1b7811490322c31f75897c2bf52ae6967a78",
        "gf_cdf_dv0.5_tilt9.txt":
            "4b98f9b778d3b081a6c2016d7b41629bedcf68300875a89dbb627d661212b1e5",
        "l1_cdf_dv0.5_tilt12.txt":
            "d5b28b1b63cd026ac3801278303de6f1b8afda1998908bb72d0d116211c1a840",
        "l1_cdf_dv0.5_tilt9.txt":
            "7257b9d85bbe49142b2f70efe5060a55444298f2df7ab0bb9684c0b92022a0d5",
        "l2_cdf_dv0.5_tilt12.txt":
            "2a00bd71ff30da8f7031328ade026a8e72f9f33249f6252be9c673004cadf05a",
        "l2_cdf_dv0.5_tilt9.txt":
            "4b280c60a08d0c9dfa3e189d08b68ca5d5139d005b34ae2ea2d9ef1b7825d9e8",
        "report_dv0.5_tilt12.txt":
            "83ddc3609deef98eaff3d28e1e088ab112734d1151953c52b971d5362481af13",
        "report_dv0.5_tilt9.txt":
            "33aa65b1c372dfe8ca8cd9cfa3eb2cf2ec042553758b2609d669138a15aa25ba",
    },
    "p2_doppler_wrap": {
        "asa_cdf_dv0.5_tilt12.txt":
            "d7020c444e606c5935ceab6334bc8490180aee8a2f93edd96f8918a6ac77c422",
        "asd_cdf_dv0.5_tilt12.txt":
            "9983d9cdd533e87d9803ce5a717e61ffe1cb0af402191b0fc4a50ac9a7a26861",
        "cl_cdf_dv0.5_tilt12.txt":
            "b8be8e34736c0f8605a934f751f99c8f7f3ab223bc8711c85c322709e341de0e",
        "ds_cdf_dv0.5_tilt12.txt":
            "fa8b1db2d10fa984d2ae1b6b19ae8af52f4d3a471ae0b6c71aac0ec31292f164",
        "esa_cdf_dv0.5_tilt12.txt":
            "59e4fc72d3539d862844973e1fda655bfdcf3f9f34428aa815368b60bf6416ad",
        "esd_cdf_dv0.5_tilt12.txt":
            "dc95cd8e57db1a6b9d7314b1f9501c1a03ffbae9b98998bdf6cf7f2b0946ed79",
        "gf_cdf_dv0.5_tilt12.txt":
            "eb0b77213d9667d85fbe9db020364ec4dfef214e857726c869fda045415ed922",
        "l1_cdf_dv0.5_tilt12.txt":
            "52ccb22e9a76afdce3b0db779b26f03f6a5045e2d9f2a57b16d7a9e7be3f1c22",
        "l2_cdf_dv0.5_tilt12.txt":
            "ea6b2a83f7d99ee404d56664e37fa7fc32429ee6dbbfc47289e57bacc156ccd3",
        "report_dv0.5_tilt12.txt":
            "6f587b92da17b529e5a9a81295afb011d862d1980d8532e00bb717d23d4476d6",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_hashes(name, tmp_path):
    paths = run_campaign(golden_config(name, tmp_path))
    assert output_hashes(paths) == GOLDEN[name]
