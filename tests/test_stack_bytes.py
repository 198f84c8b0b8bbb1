"""Stack bytes pinned across changes.

`phantom --n 6 --seed 1` preprocessed at four small configs must give stack
blobs with exactly these sha256 digests.  The first three were recorded before
``resample`` learned to compute only a box of its output, and ``off_grid_mask``
(the same cohort with every mask moved off the phase grid) before the mask was
looked up voxel by voxel from its boxed resample, so a change to resampling,
cutting, masking or channel building that moves any stack byte fails here,
without a benchmark run or a hand-made ``diff -r`` of run trees.  A change that
means to alter stack bytes says so and records new digests.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mipclass import main
from mipclass.tensorio import read_nifti, write_nifti
from mipclass.volume import Volume

CONFIGS = {
    # the accept30 grid: a 64-row window of a 128-row grid
    "row_window": {"spacing": [0.7, 0.7, 3.0], "shape": [128, 128, 32], "row_window": 64},
    # 48 resampled z-planes zero-padded to 64
    "z_padded": {"spacing": [0.7, 0.7, 2.0], "shape": [128, 128, 64], "row_window": 100},
    # 128 resampled x-rows centre-cropped to 100
    "x_cropped": {"spacing": [0.7, 0.7, 3.0], "shape": [100, 128, 32], "row_window": 50},
    # the accept30 grid again, on the cohort with off-grid masks (`off_grid_manifest`)
    "off_grid_mask": {"spacing": [0.7, 0.7, 3.0], "shape": [128, 128, 32], "row_window": 64},
}

DIGESTS = {
    "row_window": {
        "p000_left.mct": "c75c35744f0d3bf468f9163199386fb0d03fc9b056eeabb766c8c2bc1ff4bed6",
        "p000_right.mct": "f85ddd28921bb81f434e7e5f5f4c99cb9a4106692fe741fdf26ab7e35335be24",
        "p001_left.mct": "a3a2cd620ae7c27a92777e7ed617d0098a6e67bc85c0cd3bb117a94485aa0be5",
        "p001_right.mct": "b5e17c0c151fccb545681d5b1394df0fa00a7dea91278a080f290541f5aedb55",
        "p002_left.mct": "1532778c949ec2ebe2134c7e284233f3242ddd1288534a12f8dbd08a97fa49a4",
        "p002_right.mct": "68e26c1506a798579845526286dfe4e7d33d0914ec34ccbae155c07ed577c2ff",
        "p003_left.mct": "5dd6ec899ae233c7597ec4bd0da8329405e89e3bcb26c31670b3c007dbde4a13",
        "p003_right.mct": "94c62ad0c4ce0eaab751304994a6c988e26f59a57c4b685b3973e27ce5526d82",
        "p004_left.mct": "06cdd4a682278e570023ad75d150bcdfe6665ba3d630e649390cff20d9dfc70d",
        "p004_right.mct": "ac3e185aee9b568c9a1429371087c39ae1c417204d477fa81018051c0c5b668d",
        "p005_left.mct": "ebec6727127422149c132b5215d8ef930a25defb257c63e6c16cc5b19fc89784",
        "p005_right.mct": "584dc5d1d84eb241be6ede72be6a71ea97b9b3355d1be822c4ac75ace856c502",
    },
    "z_padded": {
        "p000_left.mct": "80233778187a0acddb99756b47bcfaded1363da656b31bd9460ca2772985c67e",
        "p000_right.mct": "977c147dd99e29b89b2c3f6847354b38476a9aed456b2e72b3333e9c6de55d1b",
        "p001_left.mct": "6bded7930130a75d9cbd946e3e968bf5709f8a8caabb24630ddb05284372ed16",
        "p001_right.mct": "48535e6c25f3757996af39a66ac5c62c11607fbe133ce6b4446414fc7633ef93",
        "p002_left.mct": "57db0fbea08dc896e561dc2db6dcc4feaf3dec73e585a0636f5c5635044e19fe",
        "p002_right.mct": "0321d272e1fb4816cc942ece9e1b687e20306d7edb8698c8a352b2011fbdbecd",
        "p003_left.mct": "c93fa4e1dd8d11671a229abcb1af13b826878be37708cdd7033ec71ab08cfbfe",
        "p003_right.mct": "e178c3a531d9a83f8cf675ba7792cfe38db5a179f037054ada186861094bdf22",
        "p004_left.mct": "2fd41b7732847c5e07af81a5fa50218dae05855de60513a890bfa6d4b5f440ee",
        "p004_right.mct": "03d1d7eff69536bfa1fdfc71e0c37cc73ffe1d29a45586f60d5059d0539fb139",
        "p005_left.mct": "44792e0078162c081389ef6f13cd48e2ef26d743eb73c82a9cc373141780bc7f",
        "p005_right.mct": "d57f53476f11e009465f2d8bd4d42ead8e803b01fefd2df284c445cb80c0804c",
    },
    "x_cropped": {
        "p000_left.mct": "223d6645ec800c0b69cf82aeef2eb1e88d57aa1a0c8ac4fd99f7b4e436479d88",
        "p000_right.mct": "68de961fbcf68dccc89613cbda623753dec5f460099ced35a002ba87db1b6ea0",
        "p001_left.mct": "e99fb20b69923ce999d2e9e3dc5f2113ed8167d6cfc68f43a49b9c883d54451c",
        "p001_right.mct": "86efe01f4ffb165ed82c1f64febb61ec123df2199bc9688c509503e46df5402b",
        "p002_left.mct": "1f4d1d601844853f55b70122a0b35a62e8b874aa72b6509ddb79d397c7f225a0",
        "p002_right.mct": "7c7f14d3d830d20d9c8bb7266abc3aa41855028f64bc7a6c0d95193b48dd9df7",
        "p003_left.mct": "af1a0c895f6c6320ef14bbc6e66cbc186f6361601385a7906b82dc135f859a73",
        "p003_right.mct": "e998eac8701fbfca15fe4ee454d0c792e203f850892496a1440795d5ab5e31c0",
        "p004_left.mct": "e7e49cb5962bd960bd0c4a194eda4bd4529668b2bb63f61235ee82c1d99c2668",
        "p004_right.mct": "470a1664c03ccc05335fc22caa337d9f81aa6dff9360a50a197bfd8ddea24471",
        "p005_left.mct": "1c08b3387a94f0a985a45ff30d3951df92bc6dd130a050d26cd7b4ecf4ac6bf3",
        "p005_right.mct": "aa11f53d9909ed2b5fcdd71802643857c6183d45fa32ccae2295be4fcf5b2f64",
    },
    "off_grid_mask": {
        "p000_left.mct": "41187ac8f55ee602e5ae992e9d743ce43c281af5e504eea084c06472b110ff81",
        "p000_right.mct": "5d9a25f7d42565ef669a1f964f8acf0d4e2bcdb15d3e5630f3523ab73ef7157f",
        "p001_left.mct": "9df4df8638e1e838e54d9d9bbf3ce4fe4206b5ce9d01731494d0a6a9b24628e5",
        "p001_right.mct": "2c4062dade86e2e7a981f9071508433a17f1357a5815e6d10bc8b66c414e497e",
        "p002_left.mct": "357a00c11149f45638f9dab063941d396bc8d2dacbe419e1c79724f8f14fa2d7",
        "p002_right.mct": "10be0a124268eeb03dd23d58e79d4268f9b88884cb34f4eb339797bae76bf6d8",
        "p003_left.mct": "06bd91b14fd35ddaa7087e133f08f7c1b454f5bc9d7069d30b611f1702ba7caa",
        "p003_right.mct": "f089515e75f856ff9cb2920325c458a52def1d7fbf4c5561b79983a123176548",
        "p004_left.mct": "6281365a1feeeb7def934c9eaa606c43693d19516f44eb82868d9ff185744753",
        "p004_right.mct": "42158956a39cf3ce47dbcae91005e2ae9527ed3c99e4f78589186f6c85e7043f",
        "p005_left.mct": "f0b04887a8890cac0ddb6d89882343deff74ae2920ae66d79168b71a255c7fca",
        "p005_right.mct": "bba5e7168a74cedce7c1e60ac51640cdd38d44507d345c83f4b79450689ff00a",
    },
}


@pytest.fixture(scope="module")
def manifest(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cohort6")
    assert main(["phantom", "--n", "6", "--seed", "1", "--out", str(out)]) == 0
    return out / "manifest.csv"


def _off_grid(mask: Volume, turn: float) -> Volume:
    """`mask` at half its in-plane resolution, moved off the phase grid by a
    fraction of a voxel and turned `turn` rad about world z through its centre."""
    data = np.ascontiguousarray(mask.data[::2, ::2])
    affine = mask.affine.copy()
    affine[:3, :2] *= 2.0
    centre = affine[:3, :3] @ (np.subtract(data.shape, 1) / 2) + affine[:3, 3]
    c, s = math.cos(turn), math.sin(turn)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    affine[:3, :3] = rotation @ affine[:3, :3]
    affine[:3, 3] = rotation @ (affine[:3, 3] - centre) + centre + (0.9, -1.3, 1.7)
    spacing = (2 * mask.spacing[0], 2 * mask.spacing[1], mask.spacing[2])
    return Volume(data, spacing, affine)


@pytest.fixture(scope="module")
def off_grid_manifest(tmp_path_factory) -> Path:
    """The cohort of `manifest` with each mask coarse and shifted, every third also turned."""
    out = tmp_path_factory.mktemp("cohort6_off_grid")
    assert main(["phantom", "--n", "6", "--seed", "1", "--out", str(out)]) == 0
    for i, path in enumerate(sorted((out / "studies").glob("*_mask.nii.gz"))):
        write_nifti(_off_grid(read_nifti(path), 0.12 if i % 3 == 0 else 0.0), path)
    return out / "manifest.csv"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stack_digests(request, tmp_path, name):
    manifest = request.getfixturevalue("off_grid_manifest" if name == "off_grid_mask" else "manifest")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    run = tmp_path / "run"
    args = ["preprocess", "--manifest", str(manifest), "--config", str(config), "--out", str(run)]
    assert main(args) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (run / "stacks").iterdir()}
    assert got == DIGESTS[name]
