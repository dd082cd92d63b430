"""Every byte pin of the suite: the sha256 of bytes the program must give exactly.

A change that moves bytes on purpose edits their entries here, reads each
old -> new digest from its failing tests and lists them in CHANGES.md. Each
entry says what its bytes are, then the commit that recorded it (numpy 2.4.6,
x86-64). They were recorded on numpy's X86_V4 SIMD loops (an AVX-512 host,
whose AVX512_ICL and AVX512_SPR loops give the same bytes), except the
"runs" rows named X86_V3. Those loops, an AVX2 host's without AVX-512, give
the synthetic pins too; a host without AVX2 runs X86_V2 loops, on which no
pin is recorded.
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
            "float64": "d4610b3ad7a709abb9dfb17341f1cfe6aee564154554fbd16fda3e6b099333e7",  # child of 47c55eb
            "float32": "0b34b374b2b606a3f0bfe736f0c501e3e85ba207312a59ae3f15c652dea51282",  # child of 47c55eb
        },
        (6, 3, 5, 2, 1.5, 4): {
            "float64": "53704353c1091b29afa3fec7208ac1ff9136c4ae1091cd60d21b41b5ca5db175",  # child of 47c55eb
            "float32": "e4436fb668fa2e5080eb0956b537dded80ada895b6074b334271b018e30f7e9c",  # child of 47c55eb
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
    # products differently, and numpy's X86_V3 loops its float64 exp and log
    # (blas_kernels.SIMD_TARGETS): a row is found by test_experiment.blas_fingerprint
    "runs": {
        "SkylakeX": {
            "fingerprint": "c07c4d691126f812d9f94a133da62a9ab129ade253acdfd8544a7bc0463ef8a4",  # c33f54f
            "ota": "38cb254901707ed72d7e75a82f33e0b3edb7671612538fb4f633d990fc900201",  # child of 47c55eb
            "error_free": "a6150e77696ac6cb80e93d5c75f0c95a20fc19d26749b11de668554ba9e97fe1",  # child of 47c55eb
            "batch": "d2d8c00f70a095bbbd2a90e7834d806ff352b67a096a160bea53d7c035aa832b",  # child of 47c55eb
        },
        "Haswell": {  # Zen too
            "fingerprint": "1d1505cc72b6acb45d45ccec4ebd177952972a70fbe1009a52a2c0b33c1941b6",  # c33f54f
            "ota": "bbf7256a109359d105a7dc444b490e85a1684fd779ad6327ed76624c36a46352",  # child of 47c55eb
            "error_free": "173f0bf7d7a71cd873b2b4d611ad493642d9fa3be476b8b8a258e1f93aa2eaac",  # child of 47c55eb
            "batch": "99536a8f13c9ca0384d36e6f181d91934a6923dbc26e5a9c03c8bd2243e94122",  # child of 47c55eb
        },
        "Sandybridge": {
            "fingerprint": "8de226edba46963824746b2ffb85bdff8681bd3dbf40a6eb5d0de711cea729a8",  # c33f54f
            "ota": "ee9b116b11cd6f2f93f7840d60f098d55fedc6c189b357cb45d3d50a45bb60ed",  # child of 47c55eb
            "error_free": "23315637e88aaf7b4c798a1c8c6e6c265ce48f3854faff120c9749c59307e66a",  # child of 47c55eb
            "batch": "e9881df6cae7d655f63253101083f452261d909d18cc8a853478b0ba3a7624f6",  # child of 47c55eb
        },
        "Prescott": {  # Sandybridge's runs, with a fingerprint of its own
            "fingerprint": "35ea71f0b9664dbdac063d1ef18cc72d915ffae35ffb3d8f7d026593d664f93a",  # c33f54f
            "ota": "ee9b116b11cd6f2f93f7840d60f098d55fedc6c189b357cb45d3d50a45bb60ed",  # child of 47c55eb
            "error_free": "23315637e88aaf7b4c798a1c8c6e6c265ce48f3854faff120c9749c59307e66a",  # child of 47c55eb
            "batch": "e9881df6cae7d655f63253101083f452261d909d18cc8a853478b0ba3a7624f6",  # child of 47c55eb
        },
        "SkylakeX X86_V3": {  # SkylakeX's runs, with a fingerprint of its own
            "fingerprint": "c8fb69c9cf70d8d86b30a7094284ba4742893f672c9961e9b7d3413e00bb7ff1",  # child of 47c55eb
            "ota": "38cb254901707ed72d7e75a82f33e0b3edb7671612538fb4f633d990fc900201",  # child of 47c55eb
            "error_free": "a6150e77696ac6cb80e93d5c75f0c95a20fc19d26749b11de668554ba9e97fe1",  # child of 47c55eb
            "batch": "d2d8c00f70a095bbbd2a90e7834d806ff352b67a096a160bea53d7c035aa832b",  # child of 47c55eb
        },
        "Haswell X86_V3": {  # Zen too
            "fingerprint": "4e0413610badfcc4a60c2354fd3efcdff09b41ab8d06636462e5e3b9e6c764ff",  # child of 47c55eb
            "ota": "73ffee0dfd053b8165f9c6bb8e8a682964558860ce0ad278ab0354fb27565278",  # child of 47c55eb
            "error_free": "173f0bf7d7a71cd873b2b4d611ad493642d9fa3be476b8b8a258e1f93aa2eaac",  # child of 47c55eb
            "batch": "99536a8f13c9ca0384d36e6f181d91934a6923dbc26e5a9c03c8bd2243e94122",  # child of 47c55eb
        },
        "Sandybridge X86_V3": {
            "fingerprint": "43b43d04ac0449789e44350c334d38fa51ee8651a93c79a34c27125dcb25a7c8",  # child of 47c55eb
            "ota": "ee9b116b11cd6f2f93f7840d60f098d55fedc6c189b357cb45d3d50a45bb60ed",  # child of 47c55eb
            "error_free": "1d39d9a394ca358611672d61b2a92fc96a061a7ea8db444af65960928eb82d40",  # child of 47c55eb
            "batch": "e9881df6cae7d655f63253101083f452261d909d18cc8a853478b0ba3a7624f6",  # child of 47c55eb
        },
        "Prescott X86_V3": {  # Sandybridge X86_V3's runs
            "fingerprint": "3cbb258c2ea2e832922e9e51275dc53550789fdc1aac9a7c9f17c9500655081a",  # child of 47c55eb
            "ota": "ee9b116b11cd6f2f93f7840d60f098d55fedc6c189b357cb45d3d50a45bb60ed",  # child of 47c55eb
            "error_free": "1d39d9a394ca358611672d61b2a92fc96a061a7ea8db444af65960928eb82d40",  # child of 47c55eb
            "batch": "e9881df6cae7d655f63253101083f452261d909d18cc8a853478b0ba3a7624f6",  # child of 47c55eb
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
