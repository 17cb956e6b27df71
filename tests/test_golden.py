"""Golden run of the README walkthrough: every written byte is pinned.

The CLI pipeline (simulate -> train, plain and --binarize -> decode ->
summarize -> keyframes -> classify-transition -> evaluate) runs in-process at
small fixed seeds.  The sha256 of every file it writes, and of each
command's exit code plus stdout, must equal the recorded digests.  Any
change to decoded segmentations, log-probabilities, keyframes, histories,
transition labels or the text formats shows up here as a digest mismatch.
"""

import hashlib
import os

from posehsmm.cli import main

TRAIN_CLIPS = [
    ("solU", "fetR", "left", 10),
    ("solU", "fetR", "right", 10),
    ("solU", "logR", "left", 11),
    ("solU", "logR", "right", 11),
    ("fetR", "solU", "left", 12),
    ("solU", "fetR", "left", 13),
]

WALKTHROUGH = [
    ["simulate", "--preset", "bc-sim", "--seed", "1", "--t-target", "120",
     "--out", "bc1.stream", "--truth-out", "bc1.truth"],
    ["simulate", "--preset", "bc-sim", "--seed", "2", "--t-target", "120",
     "--out", "bc2.stream", "--truth-out", "bc2.truth"],
    ["simulate", "--preset", "do-sim", "--seed", "3", "--t-target", "160",
     "--scene-switch", "--out", "do3.stream", "--truth-out", "do3.truth"],
    ["train", "--data", "bc1.stream", "bc1.truth", "--data", "bc2.stream",
     "bc2.truth", "--data", "do3.stream", "do3.truth", "--out", "plain.model"],
    ["train", "--binarize", "--data", "bc1.stream", "bc1.truth", "--data",
     "do3.stream", "do3.truth", "--d-max", "30", "--out", "bin.model"],
    ["simulate", "--preset", "do-sim", "--seed", "9", "--t-target", "120",
     "--scene-switch", "--out", "eval.stream", "--truth-out", "eval.truth"],
    ["decode", "--model", "plain.model", "--stream", "eval.stream",
     "--out", "eval.decoded"],
    ["decode", "--model", "bin.model", "--stream", "eval.stream", "--binarize",
     "--out", "bin.decoded"],
    ["summarize", "--model", "plain.model", "--stream", "eval.stream",
     "--out", "eval.history"],
    ["summarize", "--model", "bin.model", "--stream", "eval.stream",
     "--binarize", "--sample-every", "2", "--window", "8",
     "--tick-seconds", "0.5", "--out", "bin.history"],
    ["evaluate", "--truth", "eval.truth", "--decoded", "eval.decoded",
     "--history", "eval.history"],
    ["evaluate", "--truth", "eval.truth", "--decoded", "bin.decoded",
     "--history", "bin.history"],
    *[
        ["simulate", "--preset", "bc-sim", "--seed", str(seed), "--dropout",
         "0.3", "--transition", a, b, d, "--out", f"train-{a}-{b}-{d}-{seed}.stream"]
        for a, b, d, seed in TRAIN_CLIPS
    ],
    ["simulate", "--preset", "bc-sim", "--seed", "4", "--dropout", "0.2",
     "--transition", "solU", "fetR", "left", "--out", "clip.stream",
     "--truth-out", "clip.truth"],
    ["keyframes", "--stream", "clip.stream", "--k-max", "5", "--th", "0.25",
     "--out", "clip.kf"],
    ["keyframes", "--stream", "clip.stream", "--k-max", "4", "--th", "0.2",
     "--binarize", "--out", "clip-bin.kf"],
    ["classify-transition", "--manifest", "train_clips.txt", "--clip",
     "clip.stream", "--th", "0.25", "--out", "clip.transition"],
    ["classify-transition", "--manifest", "train_clips.txt", "--clip",
     "clip.stream", "--th", "0.25", "--full-rate", "--out", "clip-full.transition"],
    ["evaluate", "--truth", "clip.truth", "--transitions", "clip.transition"],
]

#: Digests recorded before observations moved to the dense array form.
GOLDEN = {
    "bc1.stream":
        "af6e61864424f2c065f536165d0b774e1d8822bcf59b69aca9c73d6720dd74bf",
    "bc1.truth":
        "7e0f0c2c3b46ffc03a539a381200dbad9dfbc903f16de2828a056795fe75cfd3",
    "bc2.stream":
        "ba661986d446179ef70e148d5a02b189e9c36f3524e11220ffd82a10c2b3f64b",
    "bc2.truth":
        "c9043869165060c8480b42da002f012a3dd910fa6d9d6823e4bc2273c0247d2b",
    "bin.decoded":
        "d44ae18718bd3e2d252badfdf55bcbcb13415f6e6765404560c3d14a4a2232fc",
    "bin.history":
        "266e9a00c6ad031083b9b26bdf0052bdae9978c43c20b6e6d6e4fde3c544f772",
    "bin.model":
        "7ca08c49ce1ae9548ebcdc7d63c11cd1831e3a3ee8d7ac97ae82eca929978f24",
    "clip-bin.kf":
        "6b1645b7edaecd5dfec57eba1aaf0a8ccb19b34a4dd6fc3ae98d0a174d43f113",
    "clip-full.transition":
        "d08a9779031064faba308dba36cdbd130f4d07fb23ec4788b882dc1f74523890",
    "clip.kf":
        "7e85befb6bd710eaf2631d187dc47f5e3f595c3b07338a98f43a3c912334ef15",
    "clip.stream":
        "326a2241ec4fb22bbd00b09f941ef808c6d9528464701ac8914601b48272e6f5",
    "clip.transition":
        "35afb6602e21e6fd78a6de35619879c0c35c86a67f840529423d0e593a157b2e",
    "clip.truth":
        "6928e5b76002f288c541dd9f2c49e07e0f66384ef442a89ea34ee58c9e2fd735",
    "do3.stream":
        "989222f9533a08a9cf6371fed6a5659e0a754c19551f03bebe303ad098a306f6",
    "do3.truth":
        "4526fb79cfd27cb6d902a5b62c9d661993e62545cfd5996e193560ba5075cbef",
    "eval.decoded":
        "539bfb8f93df371776d8c83ba69c1c37c7106bb4775d99cea19199e2baa84ae3",
    "eval.history":
        "8ad6a144d0aeaab820d8831203446d29ce1f38e66c2be80c43f1933da8c0e648",
    "eval.stream":
        "1a2077abdaf36f7f6ee15f51aa7be1aa98e0e2e09b7cc65ab626a1a726527949",
    "eval.truth":
        "39b928c37f7246186f06677f3d7cf48ad06aa6a43a3691cf1a3be08fd9793742",
    "plain.model":
        "52b613368653e76fb4dc7ebd08f63594032ec41800447de116c8704b53c0c35b",
    "step-00.out":
        "d835a6b52f1319899e432a564fa57298593a5b154cb5c9c00d83232ab2ba9727",
    "step-01.out":
        "e56dd935b2271b8c0fb436baf8ae4310167e1992e239e78705d5569c8c7d84cc",
    "step-02.out":
        "0d246adc23b99815a4ea475f67d4ceb6c4cfd36989fe804bc96bd64ba1566632",
    "step-03.out":
        "4b0f5cca87f18bbcd0d7c71e84d42e09b551acbe66217bbf85556c2cb4dd846d",
    "step-04.out":
        "d125d1db7d6ab4d52f88eb1c0a585dfdd55b97371eaff96e733e12d970f88028",
    "step-05.out":
        "2d5237d3adafb912f867d996e1724b84a30c580b37ecfb635a2c6f0acb489918",
    "step-06.out":
        "6e6604a8d3f2f631f8d4588f01f718b503e45e4ae94d4a4168ccb54e4983d653",
    "step-07.out":
        "6ac076572a0c8422892b07458686916142b71987d2a492597ceeedb218984e43",
    "step-08.out":
        "48ae240e1319b4fb9822a77ffc430784688ace72c702a821036c9d7d7084f08e",
    "step-09.out":
        "ecf7b9f517c96a9a34740b7206895cd59cd5cf357c2991e53afea1c1a84e5925",
    "step-10.out":
        "ce0682cf96376fcb5b9a91409483c06e6f81bdcd494c31ea278590059108d2c5",
    "step-11.out":
        "f46ae6f34801e92a2ab33202aaa8cb24aa64697bd02a08a8df93598885720ead",
    "step-12.out":
        "cb91dada17ed26a4de11be449c4ad55ace243dc99ced475bc899b919b1b0d699",
    "step-13.out":
        "51b75e0bf074a675a5020f8f913b2a42a5c0abee2f7965d2022e7ff33295e89d",
    "step-14.out":
        "b38956580ce7afc92e1c65b16d8738f07f59ae9ec323ef9f538616d63c6cc115",
    "step-15.out":
        "25ac74acbb80b7838de8ae67538f5f313c60e2d169db161e4703d924c9a3112a",
    "step-16.out":
        "456e42b682d9e8f39bdc58f73f2a705b62ea99ac90ac048bd66cd9748095ee6d",
    "step-17.out":
        "ac99c6df26ee29b1a14b40c5fceeb19ea710f6876f371c716f9fff32afcb2047",
    "step-18.out":
        "e990d1c80de23b9e4a864bef903fe3dcea81169786249e13a5f3bf41e262fdb7",
    "step-19.out":
        "bbb454c49273530376a7647a84ccaa8d076bf05b332cbc65a76e49770ca8d0a4",
    "step-20.out":
        "dfbe3f02cabc7de2e893fc6cf18b7e1ab14140fe5f150c39f9fb7881a0c0ba47",
    "step-21.out":
        "2b268404e9e43912252edd8aaf98ba436158363ef3c3b5a1027ed4538d3786e8",
    "step-22.out":
        "cd3f442238d5e9a8586821e11c046cf5864e5cc8cf83c11cf3f3a390ab03ffba",
    "step-23.out":
        "576faf4e7b84e04dd0df22cdd099e65e0f84b51b795d8ab4735b9e09e16b646b",
    "train-fetR-solU-left-12.stream":
        "e6e11d511e5b2544877acd62ad5683a5c5f54a4f6a133690129f9360f204cd1a",
    "train-solU-fetR-left-10.stream":
        "23b1417ad145ccc34477e2b2124f319a76eada520eeb077ddcd658a6a6bb8b4a",
    "train-solU-fetR-left-13.stream":
        "cc0b290e4c5315400ac5b8c768ad9698d1009cdd2d4333c9daa8d36f92a2e28f",
    "train-solU-fetR-right-10.stream":
        "cc8b80ac3b383860438530d1291dd8b2f1a0b997193807e8cfa6316ad02b7651",
    "train-solU-logR-left-11.stream":
        "0acbf2cc6c34adf3b4f0ac9014c2fb7d6096cc6f79a1faac6198ef0497abe809",
    "train-solU-logR-right-11.stream":
        "36096d59a8a4a3014d5be60a5e7aaa2f53b624e91450b0c8cc11feac642a0845",
    "train_clips.txt":
        "ef07662ac24a956d68ee98b60f19e413ff4c134ed36835d57c6c2bbb1a07a388",
}


def run_walkthrough(root, capsys) -> dict[str, str]:
    """Run WALKTHROUGH in ``root``; sha256 of each output file and each
    command's exit code plus stdout (as ``step-NN.out``)."""
    (root / "train_clips.txt").write_text("".join(
        f"train-{a}-{b}-{d}-{seed}.stream {a} {b} {d}\n"
        for a, b, d, seed in TRAIN_CLIPS
    ))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for k, argv in enumerate(WALKTHROUGH):
            rc = main(argv)
            out = capsys.readouterr().out
            (root / f"step-{k:02d}.out").write_text(f"rc {rc}\n{out}")
    finally:
        os.chdir(cwd)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def test_walkthrough_outputs_are_byte_identical(tmp_path, capsys):
    digests = run_walkthrough(tmp_path, capsys)
    assert sorted(digests) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if digests[name] != GOLDEN[name]]
    assert changed == []
