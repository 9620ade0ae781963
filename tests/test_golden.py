"""Golden output hashes: the sha256 of every file written by small pinned campaigns.

A refactor that changes no model must leave these bytes alone. A change that
alters the model on purpose updates the hashes in the same commit and says
so in CHANGES.md. The hashes were recorded with Python 3.11 and numpy 2.4 on
x86-64; another floating-point library may round differently.
"""
import hashlib
import os
from pathlib import Path

import pytest

import chan3d.campaign as campaign
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


def _p1_dv_xpol_per_element(cfg):
    # One element per port, cross-polarized: port 0 is a single -45 deg element.
    _p1_dv_tilt_sweep(cfg)
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


def _p2_itu_port(cfg):
    # The port pattern itself moves with the tilt, so each tilt resynthesizes.
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
    "p1_dv_xpol_per_element": (31, _p1_dv_xpol_per_element),
    "p2_reduced": (24, _p2_reduced),
    "p2_doppler_wrap": (25, _p2_doppler_wrap),
    "p2_dv_tilt_sweep": (26, _p2_dv_tilt_sweep),
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
            "5be8fe4e04e4814ecb3fa92e8c89924cd0aba9eb03f4f2e24f386b9e3fb94b41",
        "gf_cdf_dv0.5_tilt6.txt":
            "b779d9702b8da425e6c8919823b2575aafb9a601dad7ec7ddcc416c9cfb5fc40",
        "gf_cdf_dv0.8_tilt12.txt":
            "b85b3d85df33849cfa2bf34787f5813c76c48dea06e43de34318fb780e1a6c1f",
        "gf_cdf_dv0.8_tilt6.txt":
            "0cba15cec8830087239462a966f8710a5e89fd4e3794a2cc3dac5dee935b1ffd",
        "report_dv0.5_tilt12.txt":
            "d5edc24aa5ba5f4d130fedfff687e89a1d312116057dd8f2825abeee7445b36b",
        "report_dv0.5_tilt6.txt":
            "dfbfd0c938b88a8cde496ec9d7b03053178228014e8969aaf3b0135d99a497a4",
        "report_dv0.8_tilt12.txt":
            "502b2447a3ec0379cfa64aafe09600f29f90a5c913f31bcf4bccbc900b545050",
        "report_dv0.8_tilt6.txt":
            "0b9a0615fae155c3ad9a61793cc0bf3f7487cde9c93e59242c9be9cad0074887",
    },
    "p1_dv_xpol_per_element": {
        "cl_cdf_dv0.5_tilt12.txt":
            "4387a5fc839a5b418dc57f8cf3053beb05bbe1f17b1f86dc3ca01085b37a17b4",
        "cl_cdf_dv0.5_tilt6.txt":
            "e744681c8f152e3bdfe647eec610128ecc6afa2d6df9e677111fc446d8ed7f42",
        "cl_cdf_dv0.8_tilt12.txt":
            "13ec498c22ea1b13c8ca02c38292dbc66c093c83581d84b32fc63457838e0049",
        "cl_cdf_dv0.8_tilt6.txt":
            "82db7093c0f59d238084cc819bf2d859f84fd3dcc01b5973fc31c26aa7edff8e",
        "gf_cdf_dv0.5_tilt12.txt":
            "95c8b11f5f2acd160577ab6bfd64de6a196414cd215738ce8976b3c388240551",
        "gf_cdf_dv0.5_tilt6.txt":
            "f5705fdc2729f14a09aad2e4013f4bf9f652b3f5dcf5ac408849bd03d1a9a8f8",
        "gf_cdf_dv0.8_tilt12.txt":
            "938ff66d89fa4e9750cf352c7321a4534165761f1f56b6fe3e0d5f4b3955381d",
        "gf_cdf_dv0.8_tilt6.txt":
            "02e04164a8a957009ffdd4453d3546148fe130c7ab8f0b59dafdd7d930f7819f",
        "report_dv0.5_tilt12.txt":
            "8ae10b6f17b36fa37d8119918da7a63ec1f8f3a2ac284035db3f55edf5e9967d",
        "report_dv0.5_tilt6.txt":
            "8ae10b6f17b36fa37d8119918da7a63ec1f8f3a2ac284035db3f55edf5e9967d",
        "report_dv0.8_tilt12.txt":
            "8ae10b6f17b36fa37d8119918da7a63ec1f8f3a2ac284035db3f55edf5e9967d",
        "report_dv0.8_tilt6.txt":
            "8ae10b6f17b36fa37d8119918da7a63ec1f8f3a2ac284035db3f55edf5e9967d",
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
    "p2_dv_tilt_sweep": {
        "asa_cdf_dv0.5_tilt12.txt":
            "fa6ab60bf2b91f23c1b21d1f882b4b83a543a8cc321d5c6196d629e3c1c9532e",
        "asa_cdf_dv0.5_tilt9.txt":
            "285951c0186054c7c1564643c3078580000faf9400cc1ead7bc6ae16b2430651",
        "asa_cdf_dv0.8_tilt12.txt":
            "0033785ede1b80ddaafe07af3b2657d131a396398b1bce1433664d78b2145da1",
        "asa_cdf_dv0.8_tilt9.txt":
            "8abc949094c7adbdebda363a2bdb66213807cc92dab31be7770a5f27307d8514",
        "asd_cdf_dv0.5_tilt12.txt":
            "6810ce8bc6b3844424d1f05a07946aecde3434c214ec091c9fac49396967aa5d",
        "asd_cdf_dv0.5_tilt9.txt":
            "aeaa2a349d1793ef7288a2e819a5e8b253051a346e6bd1da5c5bccd59865f898",
        "asd_cdf_dv0.8_tilt12.txt":
            "df02c90875866c3d0d39ff3e0dd75058d75a6e3468dd021330e3761243bb3aed",
        "asd_cdf_dv0.8_tilt9.txt":
            "bffc38c18acdda9cd743dbd6c42ff12f050890e9171ec725c358f9477f0bdc4d",
        "cl_cdf_dv0.5_tilt12.txt":
            "29c014347c7cdeb7c2c3282fcbc93e52e9cffe84b488f017f15bd975e58449b0",
        "cl_cdf_dv0.5_tilt9.txt":
            "c2d310301fc1dba38d2a5da1080be3086eb8dd89033aeb4410f64c42dd19a6da",
        "cl_cdf_dv0.8_tilt12.txt":
            "16accd7a1a8f01fc09ceabcd630acde2b637cf8ca2cd4c13398e9c288b2d4180",
        "cl_cdf_dv0.8_tilt9.txt":
            "f2caddd916e2e87b71938e8e67b298587480cdff7344e18afe07daab2321c8f5",
        "ds_cdf_dv0.5_tilt12.txt":
            "e45e1f7cfb7824981575c9ae5e3d52df1edf2390c33d4800553ed687bd33f355",
        "ds_cdf_dv0.5_tilt9.txt":
            "aa634b980500024e376de0e2575945ac03ac3859e715139610cb18756215f332",
        "ds_cdf_dv0.8_tilt12.txt":
            "e3d4cce727eba36eb09908f335e725c3d73fc9668b3fc49c30a4127103444ac7",
        "ds_cdf_dv0.8_tilt9.txt":
            "edcd718b93c730c62db8d7e308b181dd95d1bb483bd28fafcde78ab96e8a73ce",
        "esa_cdf_dv0.5_tilt12.txt":
            "3ad54714ce75f689c371511cb68fe6369491b2290711512bfc781a2f64bcb09c",
        "esa_cdf_dv0.5_tilt9.txt":
            "0e7f05464c75edf3c3dda2d35279870b91a14cd01e0888b96a0eceb3432f5695",
        "esa_cdf_dv0.8_tilt12.txt":
            "c1c42025aaeb682d02023f2f5bdfb50eace8f77084c7884a5e252be9e8d60333",
        "esa_cdf_dv0.8_tilt9.txt":
            "35561f43ff53d55cd8b7264c8135c2b4662860d57602ac76d0cd50f6ffd3a29a",
        "esd_cdf_dv0.5_tilt12.txt":
            "43a5dc5f44abe2dc6ff803fb7c6c92fc0edee8ee942b06ec669b51d42ec80efc",
        "esd_cdf_dv0.5_tilt9.txt":
            "286dc472e09cc84ca8894e27ac9c3c267bfdb77f7f64bdafd78a6b9a50098275",
        "esd_cdf_dv0.8_tilt12.txt":
            "72d0eb04b736f0e9356cfe7cc4266635bf236584781cdd04c3bd9a09b0d98546",
        "esd_cdf_dv0.8_tilt9.txt":
            "78ced4172cdad7af81621590d1583073d26a05e23d27bb5da038a557f0f891dc",
        "gf_cdf_dv0.5_tilt12.txt":
            "e45dd8827f8b63fa3feb94ad2446b41dff29b572b4dda9fff190c6fb582001f4",
        "gf_cdf_dv0.5_tilt9.txt":
            "9532b409003e1e883d7465063b723c1737949c4c8238c70c3c3f1c340c05572e",
        "gf_cdf_dv0.8_tilt12.txt":
            "c14675d1f1fddd367bd954fb90d4308c7d0a54916fa79ea0a0d7eea359dccd12",
        "gf_cdf_dv0.8_tilt9.txt":
            "85dabb5649e8fbc306f691852734abb5a67c55cad0b5ed0e7a163f0b0509fe37",
        "l1_cdf_dv0.5_tilt12.txt":
            "1551ec48fbbb031cf7f0adec15f76a2db8fabb5b60105d158afbdfdcfe35dd76",
        "l1_cdf_dv0.5_tilt9.txt":
            "cc85d3c0d7526e4afa8b5f4dc023ea96fb3c06f4cc7e6e4ec77fcbe0c65c0897",
        "l1_cdf_dv0.8_tilt12.txt":
            "70136a20954af00b12010714365b4b6ba8da1b33b5c7ad777d6a3649dea924fa",
        "l1_cdf_dv0.8_tilt9.txt":
            "ba4854b09c7af9ce1d3ecf3928598c25bb8ceb29872810038fcda99dce36040b",
        "l2_cdf_dv0.5_tilt12.txt":
            "d77453af085968b151958cc13cef23c681b4f385bdf77536003b86f3b9503148",
        "l2_cdf_dv0.5_tilt9.txt":
            "ad5179577aabe2f775f08d3889dedc3f29c881c5ce1fb6876fa5118cead30a58",
        "l2_cdf_dv0.8_tilt12.txt":
            "001b8e43cdb3a65fd42dfabb34bd9d00b4cffc9d925e288772ea6a634150e5a4",
        "l2_cdf_dv0.8_tilt9.txt":
            "f6332be47a7f4b471d14bd6b3750d624e78abb0080f1abf0ae04168b05392049",
        "report_dv0.5_tilt12.txt":
            "3c0ecb489e8ec2fb577c84cc7547b922f3778114c346785ae05e389b171baa42",
        "report_dv0.5_tilt9.txt":
            "ce49591937dacdc8782107e3bf5fa8de5f9f91743e2e3b4d21ee2cb9fb3f2a42",
        "report_dv0.8_tilt12.txt":
            "21a3fd15b279ebc615dc86bb8e47cdf0e990559ce12da639c95d5e959dbc66e1",
        "report_dv0.8_tilt9.txt":
            "de95eabd0a6036a543d1d08ef44914f970af76df86fa87ff800a97dfb99e9a0d",
    },
    "p2_itu_port": {
        "asa_cdf_dv0.5_tilt12.txt":
            "5fcffa4fa8e01e9ad6650dc27eee1e03210a3600818ae6245db0924a5c05b59b",
        "asa_cdf_dv0.5_tilt6.txt":
            "c10e7f7f2c9ad081e92c38e0e4574e5270cc3ee9b5f2ab2bc08df52de7a19d45",
        "asd_cdf_dv0.5_tilt12.txt":
            "156c257e418a13d518514b9bedb6ae3f97f5911acfa9729bea6aa5f42ab9fbca",
        "asd_cdf_dv0.5_tilt6.txt":
            "b571907d9fd24e69c917fffd6328cc044fdce3346be6708d983fd169f4d8b981",
        "cl_cdf_dv0.5_tilt12.txt":
            "940793814f13bdd635b02f11465e3d631f4cfe3a1bc43aefb09f0b2fbbc4d8af",
        "cl_cdf_dv0.5_tilt6.txt":
            "f87c1734944c177082a40b54e29b49d5af990da3be8ba758584fb6ed38691028",
        "ds_cdf_dv0.5_tilt12.txt":
            "7cd551b762654628321965f2e17e7b2c2993c8c777b0168f61096ce56c9d6ec5",
        "ds_cdf_dv0.5_tilt6.txt":
            "75fa0aff99f049da72f4064d5ab9d03f4431bd12416cc57b8505ac5c3ed808cc",
        "esa_cdf_dv0.5_tilt12.txt":
            "2300a2462832b709f9be135d7810d1a2636ce6ed7471e2e86fd5754438112209",
        "esa_cdf_dv0.5_tilt6.txt":
            "775674324972e5a1e0dbe678620ef8c48ac58218df36480852976f5aeda33e69",
        "esd_cdf_dv0.5_tilt12.txt":
            "fab10415db17a9c4c3605b2c3e4e4a1650c202fd5e252653519419404c5112c1",
        "esd_cdf_dv0.5_tilt6.txt":
            "d60dd68df6116c3af69a7eadd06825d7a0548635586ae3c965062abd7df69a8e",
        "gf_cdf_dv0.5_tilt12.txt":
            "064ac1e6ff9928a4f372a9d9cdedfb632c70fa28773ae50270872e20fb79b337",
        "gf_cdf_dv0.5_tilt6.txt":
            "6e1bad16335967c67699789576ed4078f95b5e681bb6dbf7b89911fdacd34b39",
        "l1_cdf_dv0.5_tilt12.txt":
            "0458fbebd01f341d0250309616fcee2c46985a69a3369716c154aa93b51845ef",
        "l1_cdf_dv0.5_tilt6.txt":
            "c7cdc3859e0ca69eff86a5d5e83f97d0e0f17bba6aff979cab7c52d800fd7348",
        "l2_cdf_dv0.5_tilt12.txt":
            "c6a23f2882e34e1c192885f6c627360d668617baafd4925187d66398f94d4384",
        "l2_cdf_dv0.5_tilt6.txt":
            "a6151f325f2f487f00f00a90a189d0c1a8eee9c2d7e529c51fcd141a07994eb4",
        "report_dv0.5_tilt12.txt":
            "23a3b1bd36ce8c43aadea8b9d710553d95970888bf074f8de193273101a90442",
        "report_dv0.5_tilt6.txt":
            "08b708e2613750e040b69d78ff1ae92e7fd16b5093c04f3068a059e8adb6b8c0",
    },
    "p2_xpol_rotated": {
        "asa_cdf_dv0.5_tilt12.txt":
            "f1110a7016b8eec99215b487e6c594537e9fd0ee1846591e91cfa68aa29e9f1f",
        "asa_cdf_dv0.5_tilt9.txt":
            "52533fca441074c2d27b45140593349affa29c190e0b3dd5e5f69a0d692bff43",
        "asd_cdf_dv0.5_tilt12.txt":
            "c0c0f1d26583f339fe30e5c1307062677789028c713eced4fbff8b52a9e5f7a0",
        "asd_cdf_dv0.5_tilt9.txt":
            "8df8f9ffae682af2ebbe1da66c7bbe60aa10caa3820ad676b91fcfe93270383e",
        "cl_cdf_dv0.5_tilt12.txt":
            "dff570b1224f7db383958caf1429f351ddacba10182a71514ed70ce03fef54e7",
        "cl_cdf_dv0.5_tilt9.txt":
            "e716872e27b95ac17ed63f90cd426972f72a5a3fc313945e18b6e0ac74d6e464",
        "ds_cdf_dv0.5_tilt12.txt":
            "2d37a17e6435538fcac178b4fae2fae6daea0e99ff06d9b21bd142a175280b8e",
        "ds_cdf_dv0.5_tilt9.txt":
            "c11d55ad9fd468429f590c30fd4522c19b01893661df531c9471522e7b8ffb3a",
        "esa_cdf_dv0.5_tilt12.txt":
            "95408afaa1669bd776451088c1c94afade42bf0a2175be968e5e756a1dc69da1",
        "esa_cdf_dv0.5_tilt9.txt":
            "2e42ff5d6f2ff9a260b18c45b06af0ba689f10d3dedee18379a06f8926196376",
        "esd_cdf_dv0.5_tilt12.txt":
            "6470e327b4e42a01aa6f0d1bc50176d9db454d370c719542779231d7c111d635",
        "esd_cdf_dv0.5_tilt9.txt":
            "f20dc324aeb7cad0394d37b4f5c3f4eb388480d7df0c34ad46051f7ee7bdde42",
        "gf_cdf_dv0.5_tilt12.txt":
            "23d1a3bbdf8e23a9b98810560d1d71a27d70e99028766dec7fac46af8b55ee82",
        "gf_cdf_dv0.5_tilt9.txt":
            "81fc0116a73ae30baef3075348915d67da7db4cb68382b8d2b89330676b01e16",
        "l1_cdf_dv0.5_tilt12.txt":
            "5201af84e3f3125f538fa9f2221e0168dc6daed5f6f3fa66ceabfe8b488e8eab",
        "l1_cdf_dv0.5_tilt9.txt":
            "93f13d1de33f1e1a5d33121317faa461eb589eb83d67dd17064968d652f3aac1",
        "l2_cdf_dv0.5_tilt12.txt":
            "b7895e834951615513aa4e77ad27933a44242d08ad15c6523fe6e3c4a53bd022",
        "l2_cdf_dv0.5_tilt9.txt":
            "4221e0e3aed585236dc4d4e434f35f33b515b7264e23048990235e3bee186ba9",
        "report_dv0.5_tilt12.txt":
            "d9a44fec2720ca766f623ba1c10ce3667204e3c2f1a84555ff31ddf15baaa2ac",
        "report_dv0.5_tilt9.txt":
            "379a43cc69236dcf6daf167203eb0f25dacbfd7916e55ff3379f5d98649c2c4e",
    },
    "p2_ssp_options": {
        "asa_cdf_dv0.5_tilt9.txt":
            "063892b1608590725e928573fc7153b67c364a4ef8f0365a66c07479cc7cca8f",
        "asd_cdf_dv0.5_tilt9.txt":
            "c660b9e889e4330fbe20f1691a718962801666d3094f96e2c8322b9b2c18be0c",
        "cl_cdf_dv0.5_tilt9.txt":
            "8ad0178a573532035ecc582a74bc49871a42c9292b66f938545f697f5c5b0c85",
        "ds_cdf_dv0.5_tilt9.txt":
            "3554244aa672d87d0d761b9193a0a8e3fc64746740fdd9b996a8960ae14bda2e",
        "esa_cdf_dv0.5_tilt9.txt":
            "cc4ca2b8726f1690ffd00a10d561ee11bbacde1850ed58c70058e2e2c8c4ebff",
        "esd_cdf_dv0.5_tilt9.txt":
            "8e6f88eccc2cc41cb4da543c713dc457c15c9c64ee2ca8428d976ac7f6a6b172",
        "gf_cdf_dv0.5_tilt9.txt":
            "bb94bedbc98475e13d8e3e05003d5f690c1dc0bc446900f5ec15174c31edbb84",
        "l1_cdf_dv0.5_tilt9.txt":
            "83238ba205b46a6a6a744bb9e02abd699eea80c43e494960cafc2d0b0daba137",
        "l2_cdf_dv0.5_tilt9.txt":
            "94ed771fa9ee90818f9b27c3c3969a6d9fea3d37a5988d31f08b32906c96bdab",
        "report_dv0.5_tilt9.txt":
            "acbc30d53c8cdcc467a3827d60ef9b16fdf59a6d7bf8ba3a9dee3f00caecd93c",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_hashes(name, tmp_path):
    paths = run_campaign(golden_config(name, tmp_path))
    assert output_hashes(paths) == GOLDEN[name]


@pytest.mark.parametrize("name, workers", [
    ("p1_3d_element", 2), ("p1_legacy2d_wrap_itu", 3), ("p2_doppler_wrap", 3),
])
def test_golden_output_hashes_at_more_workers(name, workers, tmp_path):
    # The spatial fields spread over `workers` threads (and phase 2 over as
    # many processes) leave every byte as it is at one worker.
    cfg = golden_config(name, tmp_path)
    cfg.run.workers = workers
    assert output_hashes(run_campaign(cfg)) == GOLDEN[name]


def test_phase2_folds_each_ue_once(tmp_path, monkeypatch):
    # The wrap-around fold of a UE's offsets to every site serves all of its
    # links: 21 UEs, one fold each, not one per (UE, cell) link.
    calls = []

    def counting_fold(delta, basis):
        calls.append(delta.shape)
        return fold(delta, basis)

    fold = campaign.fold_to_nearest_image
    monkeypatch.setattr(campaign, "fold_to_nearest_image", counting_fold)
    paths = run_campaign(golden_config("p2_doppler_wrap", tmp_path))
    assert calls == [(7, 2)] * 21
    assert output_hashes(paths) == GOLDEN["p2_doppler_wrap"]


def test_phase1_element_terms_once_per_block_and_spacing(tmp_path, monkeypatch):
    # 63 UEs are two blocks of at most 32; each block computes the element
    # terms once per d_v, and both tilts of that d_v apply their weights.
    calls = []

    def counting_terms(spec, geometry, *args):
        calls.append(geometry.d_v)
        return terms(spec, geometry, *args)

    terms = campaign.element_terms
    monkeypatch.setattr(campaign, "element_terms", counting_terms)
    paths = run_campaign(golden_config("p1_dv_tilt_sweep", tmp_path))
    assert calls == [0.5, 0.8] * 2
    assert output_hashes(paths) == GOLDEN["p1_dv_tilt_sweep"]
