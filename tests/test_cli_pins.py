"""Pins the files and drawings of the ``cli`` benchmark workload's chains:
per semantics and k, ``update --out`` through phi_k's announcements from the
written M_k file, and ``export-dot`` of the whole chain.  The digests were
taken from the pair-by-pair loader, writer and DOT export that the
class-at-a-time ones replaced."""

from __future__ import annotations

import hashlib

import pytest

from depthlogic.cli import main
from depthlogic.model import save_model
from depthlogic.muddy import build_muddy, canonical_depths

CHAINS = [("DPAL", k) for k in (3, 4, 5)] + [
    (sem, k) for sem in ("EDPAL", "ADPAL") for k in range(3, 8)]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def chain_digests(tmp_path, sem: str, k: int) -> tuple[list[str], str]:
    """The digest of each step's written file, and of the chain's DOT."""
    start = tmp_path / "m.json"
    save_model(build_muddy(k, k, canonical_depths(k)).model, str(start))
    announcements = [f"!K[{i}] m{i}" for i in range(k - 1, 0, -1)]
    prev, steps = start, []
    for step, text in enumerate(announcements, 1):
        out = tmp_path / f"step{step}.json"
        assert main(["update", "--model", str(prev), "--formula", text,
                     "--semantics", sem, "--out", str(out)]) == 0
        steps.append(sha256(out))
        prev = out
    argv = ["export-dot", "--model", str(start), "--state", "1" * k,
            "--semantics", sem, "--out", str(tmp_path / "chain.dot")]
    for text in announcements:
        argv += ["--announce", text]
    assert main(argv) == 0
    return steps, sha256(tmp_path / "chain.dot")


STEP_SHA256 = {
    "DPAL-3": [
        "f57dfbf4e0667df28d3f67140d039e5d7f5bdd21d6f268bfa713772790d96963",
        "e44a32953a16b9995f74708474478c1c022f32cfc63d8661c91380de2e73e9da",
    ],
    "DPAL-4": [
        "632c843eb70e7693dd6a3a4893b7fada49684b1911f7dfad9c36a2277e0f246a",
        "63fd732a06267a793d1c4a36e9d798a0bcd592a85fb5e59927b366054a22ac0b",
        "6a79cd9ae02138404ed24c7bb66a4d766b8009ebf956ab5b5dd384277e4d91eb",
    ],
    "DPAL-5": [
        "353536584dfed376e3d712be4c747a088791090aa49dd0cd6eed628a6d26a0ff",
        "c44ba77f968de26c88007e319fa4db0e72986451c29d71d62db16e75cce3daca",
        "071e783f63024cc45ea53376e7052552af061e6e760f5d1d5b9ded93e643fa6f",
        "dbbd5dac628727e35709cb5d3b53f4045ad4c7164c0b725b17a1bbf5b114cc5d",
    ],
    "EDPAL-3": [
        "70af74938d5659877c2d225cd58e5de1f69845f75b3f903cfff71309c5ec5714",
        "38c53ff7d0b9fa77367588fa0f422557c0465bf98ff6ef96318ba3b8001b7cc3",
    ],
    "EDPAL-4": [
        "8111b6891487f50e7f12296b9b6d237ecda53926f70be81b8c42a2f92b4db803",
        "58263a903fd9f223bf5a5febf3ae3fe84b0ce5fd710254239448e8a6f1569949",
        "804391fd2d28a0b61f7c715094e6a452549d88c586b03574fc16ac39a5bfdb81",
    ],
    "EDPAL-5": [
        "71d6d4c5019c8f153e6739fdfca87f4d3ff331335e1776a46925b20542782ef5",
        "21f3a53cfedece06d44d6788a6b991b3584402312574e13b5bf50132944675c7",
        "ef44a9f4e3f25d18b95355c89632ea14ffe12459b45738e175220d9851f5fda2",
        "6d341afe3072f4bc59e270e7b5400653f511bc7d44dfe9dd7664b38b626052e2",
    ],
    "EDPAL-6": [
        "8c3820d7d6b1de2c5253f34e223f8b1a5ce3270273c353f1e3072da11b3db1a3",
        "c9f4fa1c60cbe4bb184ae75ccd802384a2711eac5f81556832d9bad753c3825e",
        "e753fcd62c5c522ef8015e8124a792779c090ba5a4341cd954231b30d6aab4f5",
        "89549bfe84b044655276bb1db3bdb64ed25ee7323fdfd781b3d82fc23f908953",
        "f4b0dcef4a54967cc340e9541664ca8c1dae03ac34aab3c80d79491de93f567b",
    ],
    "EDPAL-7": [
        "0e9dc8d09ccecf86c1eaa21b2fdf889e5af50bf0dbdd5e336471239b8bbaca75",
        "6e7a463ec1f4058165edf74f2c97d2af3422f29f872951a16c3249dfc9bf5c90",
        "72f24ea5a0901a37dc2a0a2aec42adb4b1727b2bd7d1f32eac945e3ca0bdfd2b",
        "a4089600450f8e57e28b133f58a7e62afb26c546db9f2d2ff5db3e9f0e0dc61a",
        "3651833ee9014e28f4e6dae7f77d5b07be90edd2c9ba12a91b8d883b46747187",
        "b42d2a25cf1e7ce4b8859bc2c520ccc5029a9e3fbe6088c68f1e059296f48f6b",
    ],
    "ADPAL-3": [
        "65f936a5ffd92543e83785527ec0132a8184795dbe1984e5c50d1c869163f714",
        "13ba19c6b0afb7f120ef99c589dec0b76b482845021e84767f16db1085e401f1",
    ],
    "ADPAL-4": [
        "78f721d0a65dde7606fdb901c41adf49923067d5be3bfd9a340f9cbea6e0764b",
        "2f538a677ac33668d08ab52b2223f900221388d6b9df033100e885db441e713b",
        "6088a2fb9ee76fb1180054b3a0f6a0fd19de019f4241af87ffb55acffdb5ca44",
    ],
    "ADPAL-5": [
        "459d0e37707f751acd141bfc20fb80058c287b76a44e2a1ffe77e0e2209c9a60",
        "714ec1fe16553816cbdd19337be340d9d927f54837e042fef387dad6c36961e0",
        "de20932989ec998c9379c8d642a842758ec4eaba10385236a71764342883dea7",
        "d8255a3b37f0daf9493a053334f0fb92d1ed5c3e22354c446cbf92a152d0a003",
    ],
    "ADPAL-6": [
        "c6f748d2d8d50b73ddd195a939125bf3e678d9b33e0cd7f7e3432b3bd3f49153",
        "3563993b486bdffe265bd1b78ccb5d5aff5fb92453d82d3237e5ce8d2ae1319a",
        "f3860b794d1829ab5e02b15b2450fe6beea5fe4bcbec661d77e73156597575f2",
        "b4b2e72fd713933a64cba7f1448ba0f638b6b4255f749b0e7d1f390595a67888",
        "c9d0ee88eba1223e79a0d99f725d07b3b279b02f6f55d53f615314fb1e412444",
    ],
    "ADPAL-7": [
        "6df50c7923d057540741a867a875d02f179b149cd47b3f3be555127d39ec70c7",
        "c39e38b4cfe9e3a21ba7241d7f209e992af8a43e819b1d89f7225c4a63f4597f",
        "4bb10e5ccfbb8db440807a12e75a115fafde36b0c6ca1fa92f3c50abbd9bbb2a",
        "2d4556dfa11627fc06a3a839b180327703e00c58755d16d0170dcffddc9739af",
        "a18b8cd4cc0a553d73a64ef846992f21a4d7d79005bef38ec26aa4c4b7c83a44",
        "c8a73a33a24e3d88ee9a5caad3a01e0db6b47a8fd816dafa20c1627dc926a0d4",
    ],
}
DOT_SHA256 = {
    "DPAL-3":
        "7f99501e8d1d187745b52906f1a2afad3ea9f7dca31de76d9ad4bd2b1a623283",
    "DPAL-4":
        "d8f0755f01e5c2141ed3189e922cae649853a44de6fc8a000d23fe5af5c39ace",
    "DPAL-5":
        "d65622f7ecdb460cfecd8b12286d7856e5cc306b1879beb455bfdcced344e629",
    "EDPAL-3":
        "50324a207e528d22cbd2c176e7d21625df2b6ebac207eabee166a25b3aff5422",
    "EDPAL-4":
        "7d3b4f7c98faab6a5cac6d14cc1a9f1407d3cd1f79d96402a5248630773878df",
    "EDPAL-5":
        "cd2f9c499255fe3cdb76a5ba19f751602ce9147696771cfb04c6c31021cb9cfd",
    "EDPAL-6":
        "07aa5a38b95be95020c936f26ca70ea5a3d2b4c0a57db5f93fcbedc23b9d7b99",
    "EDPAL-7":
        "17c24ea5975ce9b0a4a3addf79ad7bef6e34e6f47547bf9777481aa05246916b",
    "ADPAL-3":
        "911a81eee6db62a29df6e98eacf6ae2663830dcab04d0179688222a261417431",
    "ADPAL-4":
        "9ba4f098a0ff5e3fe0f9e0fd55d3f219b396833b8999942cce208d63d5cc75d3",
    "ADPAL-5":
        "49255c2fb94b166e651e7bfdad77b798c628089b99d9ba3ea70d66b5fafafd70",
    "ADPAL-6":
        "707c7fe0d4709ca471d424ad4cb3531659e33ba3075c11cb9572304697680612",
    "ADPAL-7":
        "0424a5b4b1c84de428bbc33e9dd3d450d2958cf696501947d4a508205fdf92a7",
}


@pytest.mark.parametrize("sem,k", CHAINS)
def test_cli_chain_is_byte_identical(tmp_path, sem, k):
    steps, drawing = chain_digests(tmp_path, sem, k)
    assert steps == STEP_SHA256[f"{sem}-{k}"]
    assert drawing == DOT_SHA256[f"{sem}-{k}"]
