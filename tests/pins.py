"""Every byte pin of the suite: the sha256 of bytes the program must give exactly.

A change that moves bytes on purpose edits their entries here, reads each
old -> new digest from its failing tests and lists them in CHANGES.md. Each
entry says what its bytes are, then the commit that recorded it (numpy 2.4.6, x86-64).
"""

import hashlib

PINS = {
    # small reference draws: runs draw neither the fading tensor nor the
    # oracle's per-antenna noise, so the run pins do not cover their streams
    "sample_channel": "9f265af0d034cb0cdc6619ad2cf8dca8e39534b2930e00db6ecf33c43e014b5f",  # c0721f6
    "sample_noise": "36ce5ab63d111b1c35879469a97bb53a44fd0f8bfd09a178e89a1cc7358a6d09",  # c0721f6
    # a small sample_combined draw (coefficients, then noise): the runs' channel
    "sample_combined": "b262a6875bf0ad64be3f634e098a518b3defdf7fd43b4f78fe749984c93dd5a9",  # c0721f6
    # both splits' features and labels of two small synthetic datasets by
    # SyntheticSpec fields (orthogonal means, then means on a line): "float64"
    # as the reference draws them, "float32" as make_synthetic casts them
    "synthetic": {
        (3, 5, 7, 4, 2.0, 11): {
            "float64": "7812629c100311b62946230a0948771d88422f73bfb5f7fedd405b45e25226f8",  # c0721f6
            "float32": "f909107f3559859f98bb701f35e6dc0b09562ecba63730a25a92b1e1a5efb352",  # c0721f6
        },
        (6, 3, 5, 2, 1.5, 4): {
            "float64": "c4efc205e8591e0c32bf6ea8c09bdc8693fbbe50444c3a33a6afe2e2a4a940ab",  # c0721f6
            "float32": "68051b9921e70f5ef708a74661376ff1d035078193582f3d8dcc4e34b09a736b",  # c0721f6
        },
    },
    # the `verify-stats --trials 2000 --seed 1` report by verify's chunk: the
    # reference channel streams and its chunking (512 draws four, one short)
    "verify_stats": {
        4096: "8bc5b79fce5e5eca6371df1c4582dd4cad75dc636a1f4d977a7d388549d459e3",  # c0721f6
        512: "6857334cd875f3e25fa4db136664f627d16470369f31f287ed36f44d99e26349",  # c0721f6
    },
    # metrics files of 12-iteration minimal runs in each mode, and "batch", the
    # ota run with batch_size=16 (BATCH substreams, the smallest-keys selection,
    # the minibatch path). OpenBLAS kernel families round the learner's float32
    # products differently: a row is found by test_experiment.blas_fingerprint
    "runs": {
        "SkylakeX": {
            "fingerprint": "c07c4d691126f812d9f94a133da62a9ab129ade253acdfd8544a7bc0463ef8a4",  # c33f54f
            "ota": "b73cf62b2491ab62362e8323319868629ae754722a3ad629ecb97c3bc1c36ef0",  # child of 3810ae7
            "error_free": "902b64310452253544d0f88de21a2c95b0c77a62d945f6da50d8ac1b937da587",  # child of 3810ae7
            "batch": "a44eabe80005ac57625a3d2619e62db4e5f62fbdbcd6cbeba28270359027cfdc",  # child of 3810ae7
        },
        "Haswell": {  # Zen too
            "fingerprint": "1d1505cc72b6acb45d45ccec4ebd177952972a70fbe1009a52a2c0b33c1941b6",  # c33f54f
            "ota": "99cd866fcf6b112dcd197e44c8d9c26c9e4a3c0d4c15e7ec31783d6d1879dcc0",  # child of 3810ae7
            "error_free": "16eec5bb46f634476dacc100aed1288fe6bb5442b2cee36a8ce4144edf78679a",  # child of 3810ae7
            "batch": "fde59db7656c6b9e2bba1b4b2877a8448d724e2728a84ada8b3475dd78deb089",  # child of 3810ae7
        },
        "Sandybridge": {
            "fingerprint": "8de226edba46963824746b2ffb85bdff8681bd3dbf40a6eb5d0de711cea729a8",  # c33f54f
            "ota": "238d79d879cf836d3d3d6b75ee288112cf2218137e87e213c3dad4961c1f9428",  # child of 3810ae7
            "error_free": "37f337e620aa0f775dde78eb52d29a8720142b4343068aabb99db75072117c4d",  # child of 3810ae7
            "batch": "195f2404e906d5d2fc0a424ece15ae16a6d812c566d0991f58e61a2507d1c8e7",  # child of 3810ae7
        },
        "Prescott": {  # Sandybridge's runs, with a fingerprint of its own
            "fingerprint": "35ea71f0b9664dbdac063d1ef18cc72d915ffae35ffb3d8f7d026593d664f93a",  # c33f54f
            "ota": "238d79d879cf836d3d3d6b75ee288112cf2218137e87e213c3dad4961c1f9428",  # child of 3810ae7
            "error_free": "37f337e620aa0f775dde78eb52d29a8720142b4343068aabb99db75072117c4d",  # child of 3810ae7
            "batch": "195f2404e906d5d2fc0a424ece15ae16a6d812c566d0991f58e61a2507d1c8e7",  # child of 3810ae7
        },
    },
}


def sha256(*parts) -> str:
    """The sha256 hex digest of ``parts`` in order: bytes, or arrays by their bytes."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.tobytes())
    return digest.hexdigest()


def check(name, *parts):
    """Fail unless the digest of ``parts`` is pin ``name``, a key of PINS or a tuple of keys."""
    recorded = PINS
    for key in name if isinstance(name, tuple) else (name,):
        recorded = recorded[key]
    given = sha256(*parts)
    assert given == recorded, f"pin {name}: recorded {recorded}, this tree gives {given}"


def runs(fingerprint) -> str:
    """The BLAS family whose "runs" row holds ``fingerprint``."""
    for family, row in PINS["runs"].items():
        if row["fingerprint"] == fingerprint:
            return family
    raise AssertionError(f"no run digests recorded for BLAS fingerprint {fingerprint}")
