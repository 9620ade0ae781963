"""Golden output hashes: the sha256 of every file written by small pinned campaigns.

A refactor that changes no model must leave these bytes alone. A change that
alters the model on purpose updates the hashes in the same commit and says
so in CHANGES.md. The hashes were recorded with Python 3.11 and numpy 2.4 on
x86-64; another floating-point library may round differently.
"""
import hashlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

import chan3d.antenna
import chan3d.campaign as campaign
import chan3d.lsp
from chan3d import calib, deploy, synth
from chan3d.antenna import downtilt_weights
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
    cfg.spatial.enabled = False
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)


def _p1_dv_tilt_sweep(cfg):
    # Two spacings times two tilts: the array response of a spacing serves
    # both of its tilts, so a cache keyed on the wrong spacing shows here.
    cfg.antenna.d_v_sweep = (0.5, 0.8)
    cfg.antenna.downtilt_sweep_deg = (6.0, 12.0)


def _p1_xpol_per_element(cfg):
    # One element per port, cross-polarized: port 0 is a single -45 deg element,
    # so one sweep point (no tilt or spacing can move its gain).
    cfg.antenna.k_per_port = 1
    cfg.antenna.cross_polarized = True


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


def _p2_dv_tilt_sweep(cfg):
    # Two spacings times two tilts: the element taps of a spacing serve both
    # tilts; sub-cluster splitting reorders the clusters of every link.
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.antenna.d_v_sweep = (0.5, 0.8)
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)
    cfg.ssp.split_strongest = True


def _p2_dv_per_element(cfg):
    # One cross-polarized element per port, 20 ports: every element enters the
    # taps, so the spacing moves them. The 20 elements sit at 10 positions.
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.antenna.k_per_port = 1
    cfg.antenna.cross_polarized = True
    cfg.antenna.d_v_sweep = (0.5, 0.8)
    cfg.antenna.downtilt_sweep_deg = (12.0,)


def _p2_itu_port(cfg):
    # The port pattern itself moves with the tilt, so each tilt is a TX setup
    # of its own; the setups share each UE's record of its links.
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.antenna.pattern = "itu_port"
    cfg.antenna.downtilt_sweep_deg = (6.0, 12.0)


def _p2_xpol_rotated(cfg):
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.run.n_time_samples = 2
    cfg.antenna.cross_polarized = True
    cfg.antenna.polarization_model = "rotated"
    cfg.antenna.downtilt_sweep_deg = (9.0, 12.0)


def _p2_ssp_options(cfg):
    # Small-scale options no other case sets: elevation mean offsets at both
    # ends, the inverse XPR off-diagonal and a custom symmetric ray basis.
    cfg.run.phase = 2
    cfg.run.n_ue_per_cell = 1
    cfg.antenna.downtilt_sweep_deg = (9.0,)
    cfg.ssp.elevation_offset_dep_deg = 2.5
    cfg.ssp.elevation_offset_arr_deg = -4.0
    cfg.ssp.xpr_offdiag = "sqrt_inv_kappa"
    cfg.ssp.n_rays = 6
    cfg.ssp.ray_offsets = (0.3, -0.3, 0.9, -0.9, 1.7, -1.7)


CASES = {
    "p1_3d_element": (21, _p1_3d_element),
    "p1_legacy2d_wrap_itu": (22, _p1_legacy2d_wrap_itu),
    "p1_no_spatial": (23, _p1_no_spatial),
    "p1_dv_tilt_sweep": (30, _p1_dv_tilt_sweep),
    "p1_xpol_per_element": (31, _p1_xpol_per_element),
    "p2_reduced": (24, _p2_reduced),
    "p2_doppler_wrap": (25, _p2_doppler_wrap),
    "p2_dv_tilt_sweep": (26, _p2_dv_tilt_sweep),
    "p2_dv_per_element": (32, _p2_dv_per_element),
    "p2_itu_port": (27, _p2_itu_port),
    "p2_xpol_rotated": (28, _p2_xpol_rotated),
    "p2_ssp_options": (29, _p2_ssp_options),
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
        os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths
    }


GOLDEN = {
    "p1_3d_element": {
        "cl_cdf_dv0.5_tilt12.txt":
            "b25d5ca3f0236ac189902c97b01e710873007c284cde85a7b4273b0f617d352f",
        "cl_cdf_dv0.5_tilt6.txt":
            "1eaf26701ae3571c384fb5d1bde756464c4d019a08c37517504e0369b656fcde",
        "cl_cdf_dv0.5_tilt9.txt":
            "a6009376113545fa1e4b236acdc00d993a582824c5c1971f289ff6aad9de4305",
        "gf_cdf_dv0.5_tilt12.txt":
            "2638f4aa4e5777412df86dcb363316a36c434cb606f5a60b65f631618892dc82",
        "gf_cdf_dv0.5_tilt6.txt":
            "2699f750ebb94cf7a593e4d471dd89267b1deef1a0692c58a2a53ee0f4211901",
        "gf_cdf_dv0.5_tilt9.txt":
            "2d77b0dd068df732932a366adeeca49ef9a26815da2811d698e124f19fba730f",
        "report_dv0.5_tilt12.txt":
            "7d214a63c6e8e044d7eed2b2c65528d204a3e4a6b8d6508f70fa2791a8e9fb86",
        "report_dv0.5_tilt6.txt":
            "8137bc567e9dce817398245cfdc711470be1cca7ee1f85ce4dc872cd8224343f",
        "report_dv0.5_tilt9.txt":
            "d77765cd4f4bb93dc8c8643bf2722f6075651aa1d5d4326031eb5d1323d49a28",
    },
    "p1_legacy2d_wrap_itu": {
        "cl_cdf_dv0.5_tilt12.txt":
            "fe8a549bd2bdc7ad9f280daee6736055bb4a59a94cc00abf10191829f342a0df",
        "cl_cdf_dv0.5_tilt6.txt":
            "ace18c6e3004e04dc429fb4f6375a78c6efb8d0d5a425f8c9739494c1fb0d4bc",
        "gf_cdf_dv0.5_tilt12.txt":
            "d7bf22b0bf7d721b89695e3f72b5e9e45a451d07e2989c6512d305ea000cc235",
        "gf_cdf_dv0.5_tilt6.txt":
            "d814f4e8b1f285d3c96e1472032c9528e8f7edb9502cfe653e27e9835154dbd0",
        "report_dv0.5_tilt12.txt":
            "f4b977d01583733b89d89fbf23caa7445c03f23a99e78c0fea35624705c9ad88",
        "report_dv0.5_tilt6.txt":
            "58d18a6b3b21a78eb5bff121931f0eb3486dc5f7ef92fa63d6fdfd4988f15097",
    },
    "p1_no_spatial": {
        "cl_cdf_dv0.5_tilt12.txt":
            "5e85c47643f193ff513ad3a94ab0b177c6d1dfa60cb3a56d5cc836ec68d00068",
        "cl_cdf_dv0.5_tilt9.txt":
            "50709a41cbc7530cdeded552a0de028f1904d614e90e19ea09ce95df268e9844",
        "gf_cdf_dv0.5_tilt12.txt":
            "1b5478e525df2c3fe65a8f6735ae00930877b8d883db611bff41a3a2aab1efc8",
        "gf_cdf_dv0.5_tilt9.txt":
            "9772362652fa60f525fbea52441a25aec5f2e1aca5f09bb1e918a0c65915149c",
        "report_dv0.5_tilt12.txt":
            "d40b73e87bc40a2e0c538156bf1c7d2a4fb21b23123fbcbf2728d87f9f3368a6",
        "report_dv0.5_tilt9.txt":
            "bdecb983b70a19ee4a8d0c8f1a118ef0c487328ad9d5782281ade2b0ba0e6c22",
    },
    "p1_dv_tilt_sweep": {
        "cl_cdf_dv0.5_tilt12.txt":
            "9967e72e765a037535ee5ab8e70bb074efa5b2b385c920b4d02eecd6345fed55",
        "cl_cdf_dv0.5_tilt6.txt":
            "fd33674f497b3e6051e080630164e46ff1c2dc97a49a77838a37ae030a2d77ac",
        "cl_cdf_dv0.8_tilt12.txt":
            "e56bac2923472a118375b4b9a5acc4d27b38a5f8cfc221339f793bb03819011a",
        "cl_cdf_dv0.8_tilt6.txt":
            "e1c200af7555c9848edd6f53c5d13974f3e5d58cdd8d82f660c8f1cf89c50a0a",
        "gf_cdf_dv0.5_tilt12.txt":
            "6a7d5f7ad09a856ef388f9263382e858f27defcdc0ee47c1289cfbfcc36263fc",
        "gf_cdf_dv0.5_tilt6.txt":
            "c386ad233a5c80229203a978ec5e33a7f26de89ebd50e9627974cce38f9e62f1",
        "gf_cdf_dv0.8_tilt12.txt":
            "801533093e9992eef3e228f1ca7b182523192dcfc8fdce41dc9bff9a2d4fee5d",
        "gf_cdf_dv0.8_tilt6.txt":
            "87646cf0cba92138c7d7e023fd233dd49ebb939023bd259c587733ee68929ff8",
        "report_dv0.5_tilt12.txt":
            "478e3cb856bb9dcf6a317774feeb269f891a05dd47ab67f55a6daabb0dcece59",
        "report_dv0.5_tilt6.txt":
            "6a7d5080fd8ef5c1b897f4c451e3dfc83941c8c4af1a8edec5cc6799e94d2bd7",
        "report_dv0.8_tilt12.txt":
            "1b3c68daaaef26a89fcfec37607abca4a7846a743294f45959dfe71b70374788",
        "report_dv0.8_tilt6.txt":
            "a96870223705c901be205dc04f9befc379950228560ac72d2b4dce06e73c2e1f",
    },
    "p1_xpol_per_element": {
        "cl_cdf_dv0.5_tilt12.txt":
            "9afb84e8a2086580e3b67df77e7c9871c0a603614d0a439644fbb0b740daf99d",
        "gf_cdf_dv0.5_tilt12.txt":
            "a4f19450ce243b48092e884c76107425bb7aac9d33f2c63ea63dbc8cc8ca7130",
        "report_dv0.5_tilt12.txt":
            "689d792a301d20cd5ca42ad189e722c1219c8ca487cde1c1d94859083a9164e9",
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
            "374200c57faee91c0df5bab5463ac6fe15ddb4f7117736b814b95dc197ccb332",
        "ds_cdf_dv0.5_tilt12.txt":
            "9ab902fd72748c061ef9a73ba1dc5133e8cc59a2f14bf634f1279b12abad07d4",
        "ds_cdf_dv0.5_tilt9.txt":
            "2e24789b5cc6354480d26115b2c9c234f763788dcbc3bec6906d8d0be543e33a",
        "esa_cdf_dv0.5_tilt12.txt":
            "61acb0959f5f4fe802c39523a339b2c7df958238aa3c70cd8a6e24a4a3c9b976",
        "esa_cdf_dv0.5_tilt9.txt":
            "59a85fd975c5298462134a8809350a2890d36f8f4ee4cff36de444f6953bcf5f",
        "esd_cdf_dv0.5_tilt12.txt":
            "7bda4fca91b582483980f935bcf63b9fd87e21fd4990edeed0804e3568399efa",
        "esd_cdf_dv0.5_tilt9.txt":
            "fbdd31b460676a47715461f3c17966e47ac81a1ff4aa422ce47f11b4d9d03fad",
        "gf_cdf_dv0.5_tilt12.txt":
            "1e7a20e78085fa75c6e42f58396a98e33da8dcb169ee222d18a11d8932d333b8",
        "gf_cdf_dv0.5_tilt9.txt":
            "72827d16dfa332b76494e98613a82929f2298f5b1a197226037e8aa82f940a16",
        "l1_cdf_dv0.5_tilt12.txt":
            "48aa87fda48983b2cdb5d408a352b55d6b23796a31748b026459f9d8079fdf7c",
        "l1_cdf_dv0.5_tilt9.txt":
            "44ac1b968300dbc23579b4a054df54446093d9d95ed5c262a6b17e23dfafeb95",
        "l2_cdf_dv0.5_tilt12.txt":
            "2a00bd71ff30da8f7031328ade026a8e72f9f33249f6252be9c673004cadf05a",
        "l2_cdf_dv0.5_tilt9.txt":
            "4b280c60a08d0c9dfa3e189d08b68ca5d5139d005b34ae2ea2d9ef1b7825d9e8",
        "report_dv0.5_tilt12.txt":
            "fedb5198b8d4838e1c1af6dccd608f2054c255019e0d27f085f3b5342310bc7e",
        "report_dv0.5_tilt9.txt":
            "55017c7a20bad4b104a599c9c7df3b0bce5149f91d20c8b302bb7f896b0ce1c5",
    },
    "p2_doppler_wrap": {
        "asa_cdf_dv0.5_tilt12.txt":
            "0563da300afc458546c420821081646c46e389024c350bcc3f1fe51a4dd2055d",
        "asd_cdf_dv0.5_tilt12.txt":
            "858e80434a7cfce649f5d90b611b1bcb46b21b7d3768499933fdd071914760b5",
        "cl_cdf_dv0.5_tilt12.txt":
            "5ff9be56c17baa385c781e9ddbdffba7b35bd3807e085d2a5543d970a67b3453",
        "ds_cdf_dv0.5_tilt12.txt":
            "8268bfbc22b599033de17cfd93b21ca5435a9418a5ab09a856dc5c92d5aa07f9",
        "esa_cdf_dv0.5_tilt12.txt":
            "90463683a043d9235c41ef3481af72ddc8f09633ba3c973879c3bce18915f7e6",
        "esd_cdf_dv0.5_tilt12.txt":
            "0befeae1580d4529c47d375331919cba36abab834bc1fbab3047ca11de8e6ac9",
        "gf_cdf_dv0.5_tilt12.txt":
            "b5b3bd24aae18814cec46c86c53fa90658869ebfffe09ebc33e1b5f781b5b409",
        "l1_cdf_dv0.5_tilt12.txt":
            "0b4f2886d2bae5e4707ede8b7cff03c12a3255f39c0fe88b65e2275e55d56c63",
        "l2_cdf_dv0.5_tilt12.txt":
            "ea6b2a83f7d99ee404d56664e37fa7fc32429ee6dbbfc47289e57bacc156ccd3",
        "report_dv0.5_tilt12.txt":
            "6956cfe12b42448e073576664f8529ebbb93b828109c818db224e2aa1a366d4a",
    },
    "p2_dv_tilt_sweep": {
        "asa_cdf_dv0.5_tilt12.txt":
            "2d51d79fded17f232ed093dc34dccb0ffa4317c10d1406acee603b4988de513a",
        "asa_cdf_dv0.5_tilt9.txt":
            "38ce84bd2de895520929497d89078289c0e18ede7caf8a19c9d9f7c1e163c4d9",
        "asa_cdf_dv0.8_tilt12.txt":
            "51f325614f37e15f7405b91bacc58dfb80e029c34cb14f2593440e471f3f0181",
        "asa_cdf_dv0.8_tilt9.txt":
            "f45bf0b2dca01aadbfdb7033b1e8c163d1ca43571965319ee81fa53c4d1757b8",
        "asd_cdf_dv0.5_tilt12.txt":
            "6810ce8bc6b3844424d1f05a07946aecde3434c214ec091c9fac49396967aa5d",
        "asd_cdf_dv0.5_tilt9.txt":
            "32d9b2d1d8b8964946e28e9af5631a6c0a8d185238a28a52d9dc677fe22ca73f",
        "asd_cdf_dv0.8_tilt12.txt":
            "df02c90875866c3d0d39ff3e0dd75058d75a6e3468dd021330e3761243bb3aed",
        "asd_cdf_dv0.8_tilt9.txt":
            "bffc38c18acdda9cd743dbd6c42ff12f050890e9171ec725c358f9477f0bdc4d",
        "cl_cdf_dv0.5_tilt12.txt":
            "2ccefe5a5454a94cdac526aaabcf3ddb2c2e19182a0bde0c838acb7b705b0803",
        "cl_cdf_dv0.5_tilt9.txt":
            "a7fe4c150625a341275db19d55c0ac3e79301c20b8596a5846db743bdf461722",
        "cl_cdf_dv0.8_tilt12.txt":
            "12df608f67abb54d2f9b23cc4f746f6d605d38de82eb2f3acd34765fc8ded8d8",
        "cl_cdf_dv0.8_tilt9.txt":
            "225080662f1151f05a1634d8c6df31b3685b1b9f078ccb32c5637f8d0e29e484",
        "ds_cdf_dv0.5_tilt12.txt":
            "6f91e094b005f3c0482b12c7a821553766c8d02d9cf614c6a39dbe340dcb0b76",
        "ds_cdf_dv0.5_tilt9.txt":
            "eca983d167c40feb6228e97fc537de2e45cfcabe886cc65b1e6ddb61646da940",
        "ds_cdf_dv0.8_tilt12.txt":
            "f040cf82ab79ef7136d3746d88d2df63854c8720743ab13e92659c8427586558",
        "ds_cdf_dv0.8_tilt9.txt":
            "013bf154be015d41ee305dbcac503bf6c573a20846df312eb4b37820b2f511e2",
        "esa_cdf_dv0.5_tilt12.txt":
            "79d2eacbb1c1f74e015115037b645bf4610055bed7447a643f0d7ea71a380d4a",
        "esa_cdf_dv0.5_tilt9.txt":
            "e9e9427bf34cb1ffa378e02ee695bcd5c0af0c3b06cb9f61bc0d597c83453896",
        "esa_cdf_dv0.8_tilt12.txt":
            "0d52dd3bfba25c5c6b3dc4f538247bab6fc9d9486e434f4638ae59a4dd9d4ff9",
        "esa_cdf_dv0.8_tilt9.txt":
            "436b672f80b3c5630e992821a548e79e7a4231201fc51e0d5e8414523dd404a9",
        "esd_cdf_dv0.5_tilt12.txt":
            "a5feaaebf91b7b1a8a3a97520896f36ac3a1141dbe51cf262d1576c736cc1654",
        "esd_cdf_dv0.5_tilt9.txt":
            "43513ad02fbffdb5f9bfc4f29417c2067af68376f3fee1d5873281d0f6986545",
        "esd_cdf_dv0.8_tilt12.txt":
            "5b696ee79184ad12270cd026ad4e9e360eba7182b20b120db13402d2eeba4819",
        "esd_cdf_dv0.8_tilt9.txt":
            "217ecd9c23a4c6e1e0aeec1f48dbe3ace96a60d7d8082b2a356ece4bd15adc18",
        "gf_cdf_dv0.5_tilt12.txt":
            "b679e6f10a694f2b9b46a975089f25e1b78c4e70497b5f1328836648036e8c37",
        "gf_cdf_dv0.5_tilt9.txt":
            "67ec19885aa36f1382aa66fea1ed0315661ae5b1b39499d4a1610e4adc58577d",
        "gf_cdf_dv0.8_tilt12.txt":
            "14c6f86a9f154d5574f2ff95b74d228a40f79a4164e40bf8623ed3f37ab0b90f",
        "gf_cdf_dv0.8_tilt9.txt":
            "130ec9b85f2c88ced215a9ffe53de476ad5294f892510ff6216a92a4f5ba5d5e",
        "l1_cdf_dv0.5_tilt12.txt":
            "d6a6e8665ab3f0c08e25b297fbc093b2cc29bb46257614bcd151795ee1ba4863",
        "l1_cdf_dv0.5_tilt9.txt":
            "69c6dab8b6413d617509517988bef9a652dab15c71ac7f3d59726ed3ad7815f0",
        "l1_cdf_dv0.8_tilt12.txt":
            "82b0594f906fe46cc562d0d6b403754471b35043809dd01dd7fcbf29538c49cc",
        "l1_cdf_dv0.8_tilt9.txt":
            "46fcd6fb276a4f441f3188d6cd1f4f9b6081bb43723d5d7033773642a992b810",
        "l2_cdf_dv0.5_tilt12.txt":
            "d77453af085968b151958cc13cef23c681b4f385bdf77536003b86f3b9503148",
        "l2_cdf_dv0.5_tilt9.txt":
            "ad5179577aabe2f775f08d3889dedc3f29c881c5ce1fb6876fa5118cead30a58",
        "l2_cdf_dv0.8_tilt12.txt":
            "001b8e43cdb3a65fd42dfabb34bd9d00b4cffc9d925e288772ea6a634150e5a4",
        "l2_cdf_dv0.8_tilt9.txt":
            "f6332be47a7f4b471d14bd6b3750d624e78abb0080f1abf0ae04168b05392049",
        "report_dv0.5_tilt12.txt":
            "35f2a7a833ce2437f6071a02b7a98925804f1e2699820036455790179298e1d8",
        "report_dv0.5_tilt9.txt":
            "04d3f6e2b2c0953f82fae58535c0a04dc208c8320833852c72386361b5913907",
        "report_dv0.8_tilt12.txt":
            "79969246c90359217d2726c9d3bcf8f7f35f63761154fbd031f3a2a24f659529",
        "report_dv0.8_tilt9.txt":
            "d4b47f7abdf3f4887eed8eed734d7c4a451b930873dde0c6ca6e970505be02aa",
    },
    "p2_dv_per_element": {
        "asa_cdf_dv0.5_tilt12.txt":
            "7a08cdf8adf161459bf5b46f1a510b22d9338d0d92c2015521bc16a41be8c89d",
        "asa_cdf_dv0.8_tilt12.txt":
            "aab69cf748d97578efed7e4caebbbbb76791f32fc8df9fdd4b4a7d1d04745e36",
        "asd_cdf_dv0.5_tilt12.txt":
            "1bdb7e8b12c3012687d48a570f9159c2507e132d1736ad707a1275acfc17dacc",
        "asd_cdf_dv0.8_tilt12.txt":
            "13be1aec00d39c9337de7cfa4c008558a852547d97aff85311aece4e6ceef1bb",
        "cl_cdf_dv0.5_tilt12.txt":
            "5d1ecb17580c5e76dfc7a38471accb97243fb7eb49a7b2859dc57c88158376d6",
        "cl_cdf_dv0.8_tilt12.txt":
            "a516f8696e68bd029a4d7fc3a49fe0b27654d0f445d7f41265ebd7b3cadbc583",
        "ds_cdf_dv0.5_tilt12.txt":
            "8be80369a8d883f2ec0b15baad48d9e3d0e56e911a480aea67f52220add0b1c5",
        "ds_cdf_dv0.8_tilt12.txt":
            "e262f72ac905a2ae048980f6a74ec409d2867690d3cc79ce37e8800e4ef709bc",
        "esa_cdf_dv0.5_tilt12.txt":
            "684ccc19dd27283929707ece2230bcd361e2364d6efb196b256409de415de6ce",
        "esa_cdf_dv0.8_tilt12.txt":
            "2c90350a68f17cb6f573e1a63697a459d73d7d41f9b73db025d0f0946ab70920",
        "esd_cdf_dv0.5_tilt12.txt":
            "5e00b88dadedd3a701045628b91e122f66776fb0b0b9d958401397ef173c8ddc",
        "esd_cdf_dv0.8_tilt12.txt":
            "0120105f02d046f8f5ab2cdaaae46b8c9b27f9fe1be1d0d7c123afc7c6d59864",
        "gf_cdf_dv0.5_tilt12.txt":
            "ea707ffc78605853058ade59cf2b7a42a588ea974b6c6b9e764833dd8c073685",
        "gf_cdf_dv0.8_tilt12.txt":
            "0f346a6bb2fcf86bae45c96bfd0d59f0037ad3ae70b1eae81746c53d92b9dc9b",
        "l1_cdf_dv0.5_tilt12.txt":
            "c939dbf8d5b60b3025f7580241ab565666e072820c40e921b0a46771a5023d73",
        "l1_cdf_dv0.8_tilt12.txt":
            "6a45e02865406ece0b7734d09801f44a7d071947decb077981f65872951e4ed0",
        "l2_cdf_dv0.5_tilt12.txt":
            "debb78a4edce008c54d32c83487682ccf8f88d8f367a35716161b38eabb8835f",
        "l2_cdf_dv0.8_tilt12.txt":
            "68b6f3523770d382fa7a55260da43f15ef9c5980542b12bef9017a1b3562f333",
        "report_dv0.5_tilt12.txt":
            "c6960b773f820c2e745d85ddb8c49dd7c8fdf4a6e689718301d3bb0a85b96f3c",
        "report_dv0.8_tilt12.txt":
            "5887be25c552ee6f69084e0f4f1a0cb5367b1f49797b13b4449ef296fabd7024",
    },
    "p2_itu_port": {
        "asa_cdf_dv0.5_tilt12.txt":
            "0b6a5727785a798c4df89af162340dc5da2b9593aa12853696f7044020077d48",
        "asa_cdf_dv0.5_tilt6.txt":
            "99d8df0c5c8928e0248d1596bc55c8be4d7e32157be122a16ed961f2340593e2",
        "asd_cdf_dv0.5_tilt12.txt":
            "a9c392f0abff900d8f97a0991a0ed719974397a4b28df383e6c00f1911626bc1",
        "asd_cdf_dv0.5_tilt6.txt":
            "637618a3049384ca31478c5450fa659e3e483caa424836ec87edce19f09abf62",
        "cl_cdf_dv0.5_tilt12.txt":
            "8bda1a3d97c15d05d98afd2dfa831aeb40ac3c07ceb4da10f6b1723ef73f797b",
        "cl_cdf_dv0.5_tilt6.txt":
            "5d04d9c9d45d9e888688d541ecf57b70bdcf37523749d9dbb07cacd461fc63fb",
        "ds_cdf_dv0.5_tilt12.txt":
            "27b94f09cd1a617374435bfbb3f917292a7a8a51731ec3044430d97efdd28c11",
        "ds_cdf_dv0.5_tilt6.txt":
            "1a6a0e4f2ac080ae5381cc4a10901791bfb2c75eaa1d059bafe33c375f180d0e",
        "esa_cdf_dv0.5_tilt12.txt":
            "7de9e0553c62681d5dc595b905b90295088b86b6612e13f1e0665636e7433a23",
        "esa_cdf_dv0.5_tilt6.txt":
            "8142e6f43821a3cef1554e1a4df159ef9ab795e86d6c4359272d37db2e893e28",
        "esd_cdf_dv0.5_tilt12.txt":
            "fab10415db17a9c4c3605b2c3e4e4a1650c202fd5e252653519419404c5112c1",
        "esd_cdf_dv0.5_tilt6.txt":
            "d60dd68df6116c3af69a7eadd06825d7a0548635586ae3c965062abd7df69a8e",
        "gf_cdf_dv0.5_tilt12.txt":
            "3a940423deb6a2efcb436ff1d4c670ee5f3fcf80b06ff4cb68c74afa43845cce",
        "gf_cdf_dv0.5_tilt6.txt":
            "71aa6cb04b1c07667b42765eb1099873482110bb7838051ed9ef040796ee6fd1",
        "l1_cdf_dv0.5_tilt12.txt":
            "612e28a456f53dafb7fb347ce7468aba9fca570507179e9667764d4b1ac76132",
        "l1_cdf_dv0.5_tilt6.txt":
            "d72afccdaea9bf4d3d8cf85738ed534c6d67772fa61beec878d7003fd587e159",
        "l2_cdf_dv0.5_tilt12.txt":
            "c6a23f2882e34e1c192885f6c627360d668617baafd4925187d66398f94d4384",
        "l2_cdf_dv0.5_tilt6.txt":
            "a6151f325f2f487f00f00a90a189d0c1a8eee9c2d7e529c51fcd141a07994eb4",
        "report_dv0.5_tilt12.txt":
            "ce6610d6b1ad6466a640b341040456f66b1e6b452f665a2c1bf59009dc23abbc",
        "report_dv0.5_tilt6.txt":
            "678140d4865c55347192afe35604f552f35739e9a8f0137916218348cd86d24d",
    },
    "p2_xpol_rotated": {
        "asa_cdf_dv0.5_tilt12.txt":
            "38b12a558605c6c1935784cc1c55412aab403bd57b7f7a6092e3d9548107bbd8",
        "asa_cdf_dv0.5_tilt9.txt":
            "af21d5cd0dadb02071d15432e81a8a05a92f74ae941ec93ebd95abf03bbe3c21",
        "asd_cdf_dv0.5_tilt12.txt":
            "8bcc6598f3a9b9da9b869f0e47df28cfe2a4297cf0b5b77f8b0fa27fa13bd2db",
        "asd_cdf_dv0.5_tilt9.txt":
            "252eb8f239658031a706a77f114d5367a9b98d71a19f63d86778829b780245d9",
        "cl_cdf_dv0.5_tilt12.txt":
            "8b6f65e775d04d416439c7d940238bed5af7f3c9fc78111b7569c4ff0a81cba0",
        "cl_cdf_dv0.5_tilt9.txt":
            "605e9512feec079d91ad77bb0d136901c57a78c1ae141d7a0a5102c870a0a44f",
        "ds_cdf_dv0.5_tilt12.txt":
            "272acd0de996f008ee1ac5c85586f109a8e638dac36526891c3d7424d9f79c7d",
        "ds_cdf_dv0.5_tilt9.txt":
            "62045d20a67dda45a7b6822cfe820bb9dd3c73b6242cc8feee653cb8425fd449",
        "esa_cdf_dv0.5_tilt12.txt":
            "95408afaa1669bd776451088c1c94afade42bf0a2175be968e5e756a1dc69da1",
        "esa_cdf_dv0.5_tilt9.txt":
            "2e42ff5d6f2ff9a260b18c45b06af0ba689f10d3dedee18379a06f8926196376",
        "esd_cdf_dv0.5_tilt12.txt":
            "b53c3a21081db17ae964e9090f99ebc7ff8684803d8f53c3b45adf67e2279d2f",
        "esd_cdf_dv0.5_tilt9.txt":
            "b0d5bf699192604a95896c72ea76d22ac993406c6555cc60e51315548e890b0e",
        "gf_cdf_dv0.5_tilt12.txt":
            "82992c1b3a10b74874eaf9e50a14e5553310e2dbb6eb1b2765da334d027a4a8e",
        "gf_cdf_dv0.5_tilt9.txt":
            "27b6170ed9476b0664e2a23d1450a25bacf0495f664a2ab8fd9a0f1765b12664",
        "l1_cdf_dv0.5_tilt12.txt":
            "17205c572fa5c6ff4a80096ff0a1955a19badf16643e1e3a3e6dc5539a4b3cac",
        "l1_cdf_dv0.5_tilt9.txt":
            "fc5ad3ec4f9e70d88a132b26b9d185e65cfdd8228629cd96395ab5a105129af1",
        "l2_cdf_dv0.5_tilt12.txt":
            "509762b820e945612ca1ca8feab61fc5554fc94943c0768c9081fb6c8842c75a",
        "l2_cdf_dv0.5_tilt9.txt":
            "fe71c355b7faa3297bc9895a169e45d015c8997c5df37c977929ba97307d0239",
        "report_dv0.5_tilt12.txt":
            "883e8a58672ce4928333fee78867b2bb7357191dc34cc783aee71d59e595bf12",
        "report_dv0.5_tilt9.txt":
            "f0f6ad0e79bd12dac10d36a3042c8fe0f5ed49cf7fc17ce5a470f879bfee105c",
    },
    "p2_ssp_options": {
        "asa_cdf_dv0.5_tilt9.txt":
            "3b51d901f3503edbd54e13785ec2a021b3ae89fdbb2619422e15f69769950377",
        "asd_cdf_dv0.5_tilt9.txt":
            "9dd6885f0c93da5c1c004694477de2c960c57deddd5c27aebea561037cbf6ecc",
        "cl_cdf_dv0.5_tilt9.txt":
            "1ca8d732a2cb0ee2d20d664c4488031e8460afd7b880b3dad474c41c043561cc",
        "ds_cdf_dv0.5_tilt9.txt":
            "18ecd677a5da8e7cb4114f22a7751720ce3c6d4bce2d8d74ce55abbc1c1d2556",
        "esa_cdf_dv0.5_tilt9.txt":
            "7172efde43e9dc20e474d9790879fdbeabcf915b73f1d9edc1a3ebdf550ad495",
        "esd_cdf_dv0.5_tilt9.txt":
            "8e6f88eccc2cc41cb4da543c713dc457c15c9c64ee2ca8428d976ac7f6a6b172",
        "gf_cdf_dv0.5_tilt9.txt":
            "6d04c183a69dc99dd12d7f300eac82efa2f398fc6593a679cf0e7fdd6c89031e",
        "l1_cdf_dv0.5_tilt9.txt":
            "14c8ddb3313e85b578b4243052bb2e997059ee5c1ab81c656ab6ea12791538eb",
        "l2_cdf_dv0.5_tilt9.txt":
            "94ed771fa9ee90818f9b27c3c3969a6d9fea3d37a5988d31f08b32906c96bdab",
        "report_dv0.5_tilt9.txt":
            "57648b7f87c2b0109c995e6f9616f728facd0a2fb24e915401fce0072d057254",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_hashes(name, tmp_path):
    paths = run_campaign(golden_config(name, tmp_path))
    assert output_hashes(paths) == GOLDEN[name]


@pytest.mark.parametrize("name, workers", [
    ("p1_3d_element", 2), ("p1_legacy2d_wrap_itu", 3), ("p2_doppler_wrap", 3),
    ("p2_dv_tilt_sweep", 2), ("p2_xpol_rotated", 2),
])
def test_golden_output_hashes_at_more_workers(name, workers, tmp_path):
    # The spatial fields spread over `workers` threads (and phase 2 over as
    # many processes, each UE's links in one batch) leave every byte as it
    # is at one worker: with two TX setups and with the rotated model too.
    cfg = golden_config(name, tmp_path)
    cfg.run.workers = workers
    assert output_hashes(run_campaign(cfg)) == GOLDEN[name]


def test_phase2_folds_each_ue_once(tmp_path, monkeypatch):
    # The wrap-around fold of the UEs' offsets to every site serves all of
    # their links, in phase 2 too: slow fading folds the 21 UEs x 7 sites in
    # one call, and no UE's links fold them again.
    calls = []

    def counting_fold(delta, basis):
        calls.append(delta.shape)
        return fold(delta, basis)

    fold = chan3d.lsp.fold_to_nearest_image
    monkeypatch.setattr(chan3d.lsp, "fold_to_nearest_image", counting_fold)
    paths = run_campaign(golden_config("p2_doppler_wrap", tmp_path))
    assert calls == [(21, 7, 2)]
    assert output_hashes(paths) == GOLDEN["p2_doppler_wrap"]


def test_phase2_record_once_per_ue_and_synthesis_once_per_setup(tmp_path, monkeypatch):
    # The two tilts of the itu_port pattern are two TX setups. Each of the 21
    # UEs builds one record of its 21 (UE, cell) links, 441 links in all.
    # Each setup synthesizes all of a UE's links at its ports in one call
    # that reads the UE's record, so the 882 link syntheses of both setups
    # take 42 calls (21 UEs x 2). The record evaluates its RX fields twice
    # (rays, LOS ray) and each setup its TX fields twice over all 21 links,
    # never inside synthesize. There is no per-point port step: each sweep
    # point's taps are its slice of its setup's port taps, and it takes
    # every cell's RSRP in one call: 21 UEs x 2 points = 42 calls.
    records, used, synthesizing, fields, rsrp = [], [], [], [], []

    def counting_links(*args):
        records.append(ue_links(*args))
        return records[-1]

    def counting_synthesize(chunk, times, g_t, g_los):
        synthesizing.append(chunk)
        taps = synthesize(chunk, times, g_t, g_los)
        synthesizing.pop()
        used.append((len(records) - 1, chunk, taps))
        return taps

    def counting_fields(where, ends, azimuth, *args):
        fields.append((where, len(ends), np.shape(azimuth)[:1], len(synthesizing)))
        return end_fields(ends, azimuth, *args)

    def counting_rsrp(p_tx, taps):
        rsrp.append((np.shares_memory(taps, used[-1][2]), taps.shape[-2]))
        return rsrp_fast_fading_db(p_tx, taps)

    ue_links, synthesize, end_fields = campaign.ue_links, campaign.synthesize, synth.end_fields
    rsrp_fast_fading_db = calib.rsrp_fast_fading_db
    monkeypatch.setattr(campaign, "ue_links", counting_links)
    monkeypatch.setattr(campaign, "synthesize", counting_synthesize)
    monkeypatch.setattr(synth, "end_fields", lambda *a: counting_fields("record", *a))
    monkeypatch.setattr(campaign, "end_fields", lambda *a: counting_fields("setup", *a))
    monkeypatch.setattr(calib, "rsrp_fast_fading_db", counting_rsrp)
    paths = run_campaign(golden_config("p2_itu_port", tmp_path))
    assert [len(record.rice_k) for record in records] == [21] * 21
    assert len(used) == 42 and sum(len(taps) for _, _, taps in used) == 882
    assert [ue for ue, _, _ in used] == [ue for ue in range(21) for _ in range(2)]
    assert all(chunk.ue is records[ue] and chunk.rows == slice(None) for ue, chunk, _ in used)
    bearings = np.radians(deploy.CELL_BEARINGS_DEG).tolist() * 7
    assert all([end.bearing_rad for end in chunk.ends] == bearings for _, chunk, _ in used)
    per_ue = [("record", 1, (21,), 0)] * 2 + [("setup", 21, (21,), 0)] * 4
    assert fields == per_ue * 21
    assert rsrp == [(True, 1)] * 42 and not hasattr(campaign, "to_ports")
    assert output_hashes(paths) == GOLDEN["p2_itu_port"]


def test_phase2_spreads_once_per_distinct_serving_cell(tmp_path, monkeypatch):
    # Four sweep points; a UE's report rows share the spreads of the cells
    # that serve it, each computed once: one delay spread and four angular
    # spreads per distinct (UE, serving cell).
    delay_calls, angle_calls = [], []

    def counting_delay(*args):
        delay_calls.append(args)
        return delay_spread_s(*args)

    def counting_angle(*args):
        angle_calls.append(args)
        return angular_spread_deg(*args)

    delay_spread_s, angular_spread_deg = calib.delay_spread_s, calib.angular_spread_deg
    monkeypatch.setattr(calib, "delay_spread_s", counting_delay)
    monkeypatch.setattr(calib, "angular_spread_deg", counting_angle)
    paths = run_campaign(golden_config("p2_dv_tilt_sweep", tmp_path))
    served = set()
    for path in paths:
        if os.path.basename(path).startswith("report_"):
            rows = np.loadtxt(path, skiprows=1, usecols=(0, 2), dtype=int)
            served.update(map(tuple, rows.tolist()))
    assert 84 > len(served) > 21  # fewer than one per row, more than one per UE
    assert len(delay_calls) == len(served) and len(angle_calls) == 4 * len(served)
    assert output_hashes(paths) == GOLDEN["p2_dv_tilt_sweep"]


def test_phase1_element_terms_once_per_block_and_spacing(tmp_path, monkeypatch):
    # Each block of the 63 UEs takes port 0's factors of both tilts in one
    # port_factors call per d_v, over (UE, site); at any block size the
    # bytes are the golden ones. The spacing shows in port 0's weights: each
    # tilt's column weights at that spacing.
    calls = []

    def counting_factors(lattice, weights, k_vectors, steps):
        factors = port_factors(lattice, weights, k_vectors, steps)
        calls.append((weights, (k_vectors @ steps).shape, factors.shape))
        return factors

    def column_weights(d_v):
        return np.stack([downtilt_weights(10, d_v, math.radians(90.0 + t)) for t in (6.0, 12.0)])

    port_factors = campaign.port_factors
    monkeypatch.setattr(campaign, "port_factors", counting_factors)
    for block in (campaign.UE_BLOCK, 20):
        monkeypatch.setattr(campaign, "UE_BLOCK", block)
        calls.clear()
        paths = run_campaign(golden_config("p1_dv_tilt_sweep", tmp_path / str(block)))
        rows = [min(block, 63 - start) for start in range(0, 63, block)]
        assert [np.array_equal(w, column_weights(d_v)) for (w, _, _), d_v
                in zip(calls, [0.5, 0.8] * len(rows))] == [True] * 2 * len(rows)
        assert [c[1:] for c in calls] == [((n, 7, 2), (n, 7, 2)) for n in rows for _ in range(2)]
        assert output_hashes(paths) == GOLDEN["p1_dv_tilt_sweep"]


def test_phase1_response_phases_once_per_ue_and_site(tmp_path, monkeypatch):
    # The acceptance phase-1 settings at 6 UEs per cell (342 UEs, 19 sites,
    # 10 elements per port, tilts 6/9/12): port 0's factors of the three
    # tilts toward each (UE, site), 6,498 directions in the campaign, each
    # one exp of the vertical step: where a phase per (UE, site, element)
    # made 64,980 and a phase per (UE, cell, element) 194,940.
    directions, exps = [], []

    def counting(lattice, weights, k_vectors, steps):
        directions.append((weights.shape, int(np.prod(np.shape(k_vectors)[:-1]))))
        with monkeypatch.context() as patch:
            patch.setattr(np, "exp", counting_exp)
            return port_factors(lattice, weights, k_vectors, steps)

    def counting_exp(x, *args, **kwargs):
        exps.append(np.size(x))
        return exp(x, *args, **kwargs)

    port_factors, exp = campaign.port_factors, np.exp
    monkeypatch.setattr(campaign, "port_factors", counting)
    cfg = default_config("UMa", master_seed=7)
    cfg.run.n_ue_per_cell = 6
    cfg.run.output_dir = str(tmp_path)
    cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)
    run_campaign(cfg)
    assert {shape for shape, _ in directions} == {(3, 10)}
    assert sum(n for _, n in directions) == 342 * 19 == 6_498 == sum(exps)
