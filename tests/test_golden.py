"""Golden output hashes: the sha256 of every file written by small pinned campaigns.

A refactor that changes no model must leave these bytes alone. A change that
alters the model on purpose updates the hashes in the same commit and says
so in CHANGES.md. The hashes were recorded with Python 3.11 and numpy 2.4 on
x86-64; another floating-point library may round differently.
"""
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

import chan3d.antenna
import chan3d.campaign as campaign
import chan3d.lsp
from chan3d import calib, deploy, synth
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
            "49241724f72a362f3b4aad99d3a9c7c01b934d4d708a0cebc93997edb40415eb",
        "cl_cdf_dv0.5_tilt6.txt":
            "12090ba15d496684276b089c7041b186312e87240bfeb36affc69f38c01114f5",
        "cl_cdf_dv0.5_tilt9.txt":
            "4c30f2a1e4f704c07274e8fc53c580ef619a9e8e1d275fe4b625e6c7de55c02b",
        "gf_cdf_dv0.5_tilt12.txt":
            "7cb69edec084be5ab49c3f59bd4007687950eb9e6e99558506f87f447f502430",
        "gf_cdf_dv0.5_tilt6.txt":
            "5af775d4ec9588d3f7040748866361d2f3b6efed1d1ab36d09a26c3599ad702c",
        "gf_cdf_dv0.5_tilt9.txt":
            "82e277155c8a5b8a53bed5701876d4856a1b6f8bf926aa1a44dedfb8158a9947",
        "report_dv0.5_tilt12.txt":
            "3a4b569be17313c48a490651ef343078e4c897ae1037d83e0fdc6277b7f562bc",
        "report_dv0.5_tilt6.txt":
            "38f149ba0ee9594604fcda122ed425718461880d9972416f217636f2768379a2",
        "report_dv0.5_tilt9.txt":
            "24a233517ca612e243291fa51190aadcd79a16f9eb43568432f70f82f4fa6f6a",
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
            "d4d7a8fb4bac737687e80aca624f9cf01151459b3e1fbe1eec3691f193849aa4",
        "cl_cdf_dv0.5_tilt9.txt":
            "de32d774d92928f061a42ad6c531855f391ba86f5e60798320e09016b5f5b4d9",
        "gf_cdf_dv0.5_tilt12.txt":
            "a2d3dcc46c7d74ca1f1ba974b80522f3589c8c67910eb033846c2b588c85acd8",
        "gf_cdf_dv0.5_tilt9.txt":
            "9d2036fb057aa399a2ac77e102042a7f04a67ef6aa034d9ef41d03c658fb55d0",
        "report_dv0.5_tilt12.txt":
            "830d429cace350017d9a8c2652387e8efe83d9ae1c71acc788467ada9fdcd097",
        "report_dv0.5_tilt9.txt":
            "4574c458e096f320d7d3272b3e9c467a1da0fcdb52d3b7acdbbeddfbe0f07246",
    },
    "p1_dv_tilt_sweep": {
        "cl_cdf_dv0.5_tilt12.txt":
            "369b72682b088158bac9740a7c8634172f3e5452cb3df20c20604af30fe9a1c2",
        "cl_cdf_dv0.5_tilt6.txt":
            "d347c61ab7123bdd3bd53a8acf51fe324545571902862abbb27b2222c43fc77b",
        "cl_cdf_dv0.8_tilt12.txt":
            "63c61e40d8be94dc7e3c1dc5c9476ea6f03be47cfbb78aaa42e0b771af365cdf",
        "cl_cdf_dv0.8_tilt6.txt":
            "026c8120a0ba5016d06111b42ce954c019409ed7f3101b79ebfd60ca4e0802c0",
        "gf_cdf_dv0.5_tilt12.txt":
            "8cbe9e5ada450c3803d4daa57e907fc6933fc8e0c99b3a4b045cddc7f5fca227",
        "gf_cdf_dv0.5_tilt6.txt":
            "a5601e4858b441077a5bb4cb0e8d4fa40937cf9449d1714871148a025149329f",
        "gf_cdf_dv0.8_tilt12.txt":
            "f73ca43a7ce440bacfd46ecbacc7af4dedec79060571be2a3a27b20586b2490f",
        "gf_cdf_dv0.8_tilt6.txt":
            "0476798528d6cef446963ab9735ce26513e6060482bf2efe7f7b834d86b13f09",
        "report_dv0.5_tilt12.txt":
            "af113969fcc62cbe769e407eb6c74d7c2436cd88530e830dca6b63dfecb3c8a5",
        "report_dv0.5_tilt6.txt":
            "d11bd509211e785709652627ecc62ad685d9220ab256dbbb29572e9b375542d7",
        "report_dv0.8_tilt12.txt":
            "4279c6d920795106ab16860cc5012d157c0eff99558358e1439e811f6f9b945c",
        "report_dv0.8_tilt6.txt":
            "925d2ca1313ff9819f36017edca6fff90bd52f4ee1c565b08fb4dbbe25314c0e",
    },
    "p1_xpol_per_element": {
        "cl_cdf_dv0.5_tilt12.txt":
            "9afb84e8a2086580e3b67df77e7c9871c0a603614d0a439644fbb0b740daf99d",
        "gf_cdf_dv0.5_tilt12.txt":
            "3e08b1c9755ea480e267019e23e187b849274c9339c6c402ebeab9ecc450637f",
        "report_dv0.5_tilt12.txt":
            "bee9c23c49612840ece9a82eb4250b36f82458ea0ff381f83e4b9bbf69a60cb3",
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
            "7ba5577120f142e41160868d958dde5c2a07015aeedb976248ab04ccd5a9ae7f",
        "gf_cdf_dv0.5_tilt9.txt":
            "4a9a77d4cca55133b8ea9e45d62ea477229d26a766d18569081ce5256b94bb66",
        "l1_cdf_dv0.5_tilt12.txt":
            "f2c43272e65672a25de1aab1c4269fd142995a03c0020a360e6db0f05941f044",
        "l1_cdf_dv0.5_tilt9.txt":
            "fb6eec5c37664e03f764292e4d4ed4aeb34f5cbd09b0d910ec4480c0c2ae2579",
        "l2_cdf_dv0.5_tilt12.txt":
            "2a00bd71ff30da8f7031328ade026a8e72f9f33249f6252be9c673004cadf05a",
        "l2_cdf_dv0.5_tilt9.txt":
            "4b280c60a08d0c9dfa3e189d08b68ca5d5139d005b34ae2ea2d9ef1b7825d9e8",
        "report_dv0.5_tilt12.txt":
            "93210dd749af10296cfd6a16b838f514f05e7ba85aa0d643ef701b3abe9b490a",
        "report_dv0.5_tilt9.txt":
            "9bec0cb3bf77f461f59a82ca3999b56e0670b5df25146b144dfca4b4d36005d6",
    },
    "p2_doppler_wrap": {
        "asa_cdf_dv0.5_tilt12.txt":
            "0563da300afc458546c420821081646c46e389024c350bcc3f1fe51a4dd2055d",
        "asd_cdf_dv0.5_tilt12.txt":
            "858e80434a7cfce649f5d90b611b1bcb46b21b7d3768499933fdd071914760b5",
        "cl_cdf_dv0.5_tilt12.txt":
            "21e2b328bcc78b3453277a60a7c9cc5c798ebeb6547beafe43210c8a736a2ec2",
        "ds_cdf_dv0.5_tilt12.txt":
            "8268bfbc22b599033de17cfd93b21ca5435a9418a5ab09a856dc5c92d5aa07f9",
        "esa_cdf_dv0.5_tilt12.txt":
            "90463683a043d9235c41ef3481af72ddc8f09633ba3c973879c3bce18915f7e6",
        "esd_cdf_dv0.5_tilt12.txt":
            "0befeae1580d4529c47d375331919cba36abab834bc1fbab3047ca11de8e6ac9",
        "gf_cdf_dv0.5_tilt12.txt":
            "00b4b67ca1b6e196398509e402db0b7008e64a4c9d51ffac62ada49c70769b7f",
        "l1_cdf_dv0.5_tilt12.txt":
            "7b5c219adf4f5e99465eaa6934ed9aac305caff59b0259f5aff0495f49ed8457",
        "l2_cdf_dv0.5_tilt12.txt":
            "ea6b2a83f7d99ee404d56664e37fa7fc32429ee6dbbfc47289e57bacc156ccd3",
        "report_dv0.5_tilt12.txt":
            "53c3641eb2a4966b2222a79b46d65bd114d7128831e89316f3eda613d08dd919",
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
            "38f44d6f607199c82ef87b57e5cf8f96e597a06783c0abe77c85e95cf4b1d08a",
        "cl_cdf_dv0.5_tilt9.txt":
            "a7fe4c150625a341275db19d55c0ac3e79301c20b8596a5846db743bdf461722",
        "cl_cdf_dv0.8_tilt12.txt":
            "ed08872e0dc74ca78fa49e8c3dfcfc4f4db707784bf26a8d856cfcd6020d43c5",
        "cl_cdf_dv0.8_tilt9.txt":
            "d0c893464ae7f221468c2847afd7bc357ee6f1c0e8450edb5930e9cd2e57e24b",
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
            "54c9c66053c0b6187a76d353256d19863690da07df1251f399c8ef65ab3b5b6b",
        "gf_cdf_dv0.5_tilt9.txt":
            "601b1d27b35940c7c95ba27929f468f2c4b306c1d02e03efabf2fac41d7ae4fc",
        "gf_cdf_dv0.8_tilt12.txt":
            "0db982a44c42b7b7354ff1d5f6736120cca1525c4b97f63ea1fa7dca7f1d8a49",
        "gf_cdf_dv0.8_tilt9.txt":
            "c95660278681cd28d648c27088ac098529096c84361910597faa9f99e8bd163b",
        "l1_cdf_dv0.5_tilt12.txt":
            "5bae61410fd6812150eddeb936eab9e31002f65548a0187b146c36a64cae1463",
        "l1_cdf_dv0.5_tilt9.txt":
            "ae4f54e430cc48130042f4a2e9d391cbcf61c2d7463be7acec9f9db6e294787b",
        "l1_cdf_dv0.8_tilt12.txt":
            "c8338697faaab52673f8c9f8d44662a4c6415a976b0303e1aa7b6f20ad572fdd",
        "l1_cdf_dv0.8_tilt9.txt":
            "e196d112fef1054189f96fcafdddeaa4c2af9fd24c87a960b4e8ce00caa0e222",
        "l2_cdf_dv0.5_tilt12.txt":
            "d77453af085968b151958cc13cef23c681b4f385bdf77536003b86f3b9503148",
        "l2_cdf_dv0.5_tilt9.txt":
            "ad5179577aabe2f775f08d3889dedc3f29c881c5ce1fb6876fa5118cead30a58",
        "l2_cdf_dv0.8_tilt12.txt":
            "001b8e43cdb3a65fd42dfabb34bd9d00b4cffc9d925e288772ea6a634150e5a4",
        "l2_cdf_dv0.8_tilt9.txt":
            "f6332be47a7f4b471d14bd6b3750d624e78abb0080f1abf0ae04168b05392049",
        "report_dv0.5_tilt12.txt":
            "23eb66fe3804427756d540dcfd3807fdc9318f97c61fd37ed4638ef8cc5972f6",
        "report_dv0.5_tilt9.txt":
            "777671c4ac472bbe296ec0aee4f68c95a807b3d2af19468e4c07548f8bf8688b",
        "report_dv0.8_tilt12.txt":
            "5bed7b36024bc223f2dc95bc45badbc8a5cdd7661da0251aa56eb11f4c0053cf",
        "report_dv0.8_tilt9.txt":
            "6a0fca169879819a114de2d2d28347d464e8cc5d3ff3ebebb75891ef36399213",
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
            "b921d25412d7cc3b6f9f2e9af7934a1886387c06cb3b316708c31c44e99a7724",
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
            "8df37b4bbff86ebc1a0962a71a9dc91c0d1db1528ff66db2aab033a88d717184",
        "gf_cdf_dv0.8_tilt12.txt":
            "413eb15c7c0883d62ef74d2b45e5ea4134414f64c73cbcd41a4120652a1c2620",
        "l1_cdf_dv0.5_tilt12.txt":
            "015e4ad3741ba0ef7acdf1f8cb4dd9148a39e2e99a88611902321c5ec6284abe",
        "l1_cdf_dv0.8_tilt12.txt":
            "69c49249aab713a64beba612bf815d10bf0c84dc312bce7b00b4da12cb492834",
        "l2_cdf_dv0.5_tilt12.txt":
            "9438305caef341bad259ee9aff6a99e551e54f1eb9dbe1329266fe2cab8140b0",
        "l2_cdf_dv0.8_tilt12.txt":
            "64e512a6efda54b975f4c46ed225b6a987a35e2982ac64a96ba358de0f430e46",
        "report_dv0.5_tilt12.txt":
            "47367e336b03a02ff00ed61558d4472710db30e824459316e768a0c141f0d7b1",
        "report_dv0.8_tilt12.txt":
            "0c5b7bc100d20ce88a9887dad34577a01cb5fd0b3a4685caa18fe29818a3f651",
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
            "dff570b1224f7db383958caf1429f351ddacba10182a71514ed70ce03fef54e7",
        "cl_cdf_dv0.5_tilt9.txt":
            "f34cedc396ea5d534ce71418a057b2511b9692f04d17992e2a5a6dd5db096a98",
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
            "af1e9ee0ece665d3f3717766de31928f429751f2c8e52426c9ba3d79c357b7db",
        "gf_cdf_dv0.5_tilt9.txt":
            "e03fbc0b64183aa09e6f030c4ea4e3e5a25fe1fae6d71072ad4d30db5c89d2cb",
        "l1_cdf_dv0.5_tilt12.txt":
            "2b137b82a7543c0756e5d6ce7e30cbd487d291303b92f8d5c10d988d43986b75",
        "l1_cdf_dv0.5_tilt9.txt":
            "cd72e1a45e5d0b28d301826c440fd69c7d7191c12422c2f6b5e9fe997a15a783",
        "l2_cdf_dv0.5_tilt12.txt":
            "7cb168d9eee07e387d4dd8af2447329ee150a8cb8bd4a2c9c566fd9f82838b8b",
        "l2_cdf_dv0.5_tilt9.txt":
            "18b4d0aad9ae481262a80440a6beb630df38078e9058ac882661e04ba83f5ab6",
        "report_dv0.5_tilt12.txt":
            "c7a7df0111bf87813cf65372b76199dfb1b4175099cac90a557e35ceee5cb6f5",
        "report_dv0.5_tilt9.txt":
            "981fcc3c71a8eb001ede43c4552133945056355565755e547e4980d142cb810e",
    },
    "p2_ssp_options": {
        "asa_cdf_dv0.5_tilt9.txt":
            "3b51d901f3503edbd54e13785ec2a021b3ae89fdbb2619422e15f69769950377",
        "asd_cdf_dv0.5_tilt9.txt":
            "9dd6885f0c93da5c1c004694477de2c960c57deddd5c27aebea561037cbf6ecc",
        "cl_cdf_dv0.5_tilt9.txt":
            "8ad0178a573532035ecc582a74bc49871a42c9292b66f938545f697f5c5b0c85",
        "ds_cdf_dv0.5_tilt9.txt":
            "18ecd677a5da8e7cb4114f22a7751720ce3c6d4bce2d8d74ce55abbc1c1d2556",
        "esa_cdf_dv0.5_tilt9.txt":
            "7172efde43e9dc20e474d9790879fdbeabcf915b73f1d9edc1a3ebdf550ad495",
        "esd_cdf_dv0.5_tilt9.txt":
            "8e6f88eccc2cc41cb4da543c713dc457c15c9c64ee2ca8428d976ac7f6a6b172",
        "gf_cdf_dv0.5_tilt9.txt":
            "b1ec72a9fbbd380c69dfca05c2549811def07448653865ad19435d3f74560225",
        "l1_cdf_dv0.5_tilt9.txt":
            "14565428678a4fe931678d8a338b1aa6a8dd470a982a82bed99382098d9d360f",
        "l2_cdf_dv0.5_tilt9.txt":
            "94ed771fa9ee90818f9b27c3c3969a6d9fea3d37a5988d31f08b32906c96bdab",
        "report_dv0.5_tilt9.txt":
            "f6232d6095505c390840b33e1ec228e02db596b371eadbd1b986089341fdc967",
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


def test_phase2_record_once_per_ue_and_port_step_once_per_point(tmp_path, monkeypatch):
    # The two tilts of the itu_port pattern are two TX setups. Each of the 21
    # UEs builds one record of its 21 (UE, cell) links, 441 links in all.
    # Each setup synthesizes a UE's links one site at a time: a chunk of the
    # site's three cells, in order, that reads its UE's record, so the 882
    # link syntheses of both setups take 294 calls (21 UEs x 7 sites x 2).
    # The record evaluates its RX fields twice (rays, LOS ray) and each setup
    # its TX fields twice over all 21 links, never inside synthesize. Each
    # sweep point maps the setup's stacked element taps to ports and takes
    # every cell's RSRP in one call each: 21 UEs x 2 points = 42 calls.
    records, used, synthesizing, fields, ported, rsrp = [], [], [], [], [], []

    def counting_links(*args):
        records.append(ue_links(*args))
        return records[-1]

    def counting_synthesize(chunk, times, g_t, g_los):
        synthesizing.append(chunk)
        taps = synthesize(chunk, times, g_t, g_los)
        synthesizing.pop()
        used.append((len(records) - 1, chunk, taps.shape[0]))
        return taps

    def counting_fields(where, ends, azimuth, *args):
        fields.append((where, len(ends), np.shape(azimuth)[:1], len(synthesizing)))
        return end_fields(ends, azimuth, *args)

    def counting_ports(taps, weights):
        ported.append(taps.shape[0])
        return to_ports(taps, weights)

    def counting_rsrp(p_tx, taps):
        rsrp.append(rsrp_fast_fading_db(p_tx, taps))
        return rsrp[-1]

    ue_links, synthesize, end_fields = campaign.ue_links, campaign.synthesize, synth.end_fields
    to_ports, rsrp_fast_fading_db = campaign.to_ports, calib.rsrp_fast_fading_db
    monkeypatch.setattr(campaign, "ue_links", counting_links)
    monkeypatch.setattr(campaign, "synthesize", counting_synthesize)
    monkeypatch.setattr(synth, "end_fields", lambda *a: counting_fields("record", *a))
    monkeypatch.setattr(campaign, "end_fields", lambda *a: counting_fields("setup", *a))
    monkeypatch.setattr(campaign, "to_ports", counting_ports)
    monkeypatch.setattr(calib, "rsrp_fast_fading_db", counting_rsrp)
    paths = run_campaign(golden_config("p2_itu_port", tmp_path))
    assert [len(record.rice_k) for record in records] == [21] * 21
    assert len(used) == 294 and sum(n for _, _, n in used) == 882
    assert [ue for ue, _, _ in used] == [ue for ue in range(21) for _ in range(14)]
    assert all(chunk.ue is records[ue] for ue, chunk, _ in used)
    assert [chunk.rows for _, chunk, _ in used] == [slice(c, c + 3) for c in range(0, 21, 3)] * 42
    bearings = np.radians(deploy.CELL_BEARINGS_DEG).tolist()
    assert all([end.bearing_rad for end in chunk.ends] == bearings for _, chunk, _ in used)
    per_ue = [("record", 1, (21,), 0)] * 2 + [("setup", 21, (21,), 0)] * 4
    assert fields == per_ue * 21
    assert ported == [21] * 42 and [r.shape for r in rsrp] == [(21,)] * 42
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
    # Each block of the 63 UEs computes port 0's response phases and both
    # tilts' weighted sums once per d_v, over (UE, site); at any block size
    # the bytes are the golden ones. The spacing in wavelengths is element
    # 1's height: it sits one row up.
    calls = []

    def counting_sums(heights, wavelength, zenith, geometries, *args):
        sums = column_sums(heights, wavelength, zenith, geometries, *args)
        shapes = {part.shape for pair in sums for part in pair}
        calls.append((heights[1, 0] / wavelength, zenith.shape, len(sums), shapes))
        return sums

    column_sums = campaign.column_sums
    monkeypatch.setattr(campaign, "column_sums", counting_sums)
    for block in (campaign.UE_BLOCK, 20):
        monkeypatch.setattr(campaign, "UE_BLOCK", block)
        calls.clear()
        paths = run_campaign(golden_config("p1_dv_tilt_sweep", tmp_path / str(block)))
        rows = [min(block, 63 - start) for start in range(0, 63, block)]
        assert [d_v for d_v, *_ in calls] == pytest.approx([0.5, 0.8] * len(rows), rel=1e-12)
        assert [c[1:] for c in calls] == [((n, 7), 2, {(n, 7)}) for n in rows for _ in range(2)]
        assert output_hashes(paths) == GOLDEN["p1_dv_tilt_sweep"]


def test_phase1_response_phases_once_per_ue_and_site(tmp_path, monkeypatch):
    # The acceptance phase-1 settings at 6 UEs per cell (342 UEs, 19 sites,
    # 10 elements per port, tilts 6/9/12): one response phase per (UE, site,
    # element) in the campaign, 64,980, where a phase per (UE, cell, element)
    # made 194,940.
    elements = []

    def counting(positions, k_vectors):
        phases = response_phases(positions, k_vectors)
        elements.append(phases.size)
        return phases

    response_phases = chan3d.antenna.response_phases
    monkeypatch.setattr(chan3d.antenna, "response_phases", counting)
    cfg = default_config("UMa", master_seed=7)
    cfg.run.n_ue_per_cell = 6
    cfg.run.output_dir = str(tmp_path)
    cfg.antenna.downtilt_sweep_deg = (6.0, 9.0, 12.0)
    run_campaign(cfg)
    assert sum(elements) == 342 * 19 * 10 == 64_980
