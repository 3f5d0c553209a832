"""Golden transcripts: classification output pinned byte for byte.

Root finding draws random splitting polynomials, so a change to how it
consumes its random stream could in principle change which root is found
first.  The reported roots are sorted canonically, so labels, witnesses and
transcripts must not depend on that.  These digests were recorded before
the Cantor-Zassenhaus loop was changed; they are the reference, and a
mismatch means the output changed.

Each digest is the sha256 of json.dumps(transcript(u, classify(u))).
"""

import hashlib
import json
import random

import pytest

from dihedral.algebra import AlgebraElement, random_involution
from dihedral.classification import classify, transcript
from dihedral.exprs import evaluate
from dihedral.fields import FieldSpec, make_field
from dihedral.laurent import LaurentPoly

# seeds whose degree-bound-6 involutions need roots at tower level >= 9
DEEP_SEEDS = {3: (0, 9, 11, 12, 16, 38, 40, 41), 7: (0, 9, 11, 12, 41, 44, 45, 63)}
A1_PREFIX = 12  # the first inputs of each of A1's four seeded streams

GOLDEN = {
    "a1/fp:3/0": "aac4e097e76b9495e68b5ff4d60ddfd527491641b2493efcb73bd42cbeaddc31",
    "a1/fp:3/1": "7d4a7b7a081fe1d7e0fb92ddaf01a5271242836768e4f29e9e37a49f83df6461",
    "a1/fp:3/2": "f8b74103b0b43fc1431125f2c73b443fa907c958ac8ec2e1627d8d30f8119ea6",
    "a1/fp:3/3": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:3/4": "591649700504275ba21c8e3e7f2bfc28313b20d9ad3425276995c36525a0f30b",
    "a1/fp:3/5": "2460c669acbf871fbdeaa874b9038254d4b860701eece945999bda587a93453d",
    "a1/fp:3/6": "d432fc28bfe88f44540f8a7ed82628bfb32ad5fe8284997378a7c46daa3a5f55",
    "a1/fp:3/7": "9c9783b76c6b5404908c33a899eb90d7c84ba5aeb9da96097f7087eecfa5093b",
    "a1/fp:3/8": "ccf449469db65acf6a2bbdf132adc7c0d4256c7c2c28bb52170182414dd4c8a1",
    "a1/fp:3/9": "bdda9a24afa39b4a4d1d323326734ba2f3a79eeb2d3e9b794d7fcae158421e06",
    "a1/fp:3/10": "2ae559c1c8b2d440766802b6c475a4dfac3ade4c2cba67aab40ed44f51d6ee1f",
    "a1/fp:3/11": "f46cc4b902d9b7aeb0a8e10cdfa5cb2b4ff6fe7f8cafb798502b1713bcc15b73",
    "a1/fp:5/0": "2460c669acbf871fbdeaa874b9038254d4b860701eece945999bda587a93453d",
    "a1/fp:5/1": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:5/2": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:5/3": "31c1f5f86475e803e3dd2a095ef7c883f03165ffd0f5b0ea07aa0b69b22ab5ec",
    "a1/fp:5/4": "df72fd973b434fbe1ff35b1b5cb53225d18b327c3426525ad3fb270afca94996",
    "a1/fp:5/5": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:5/6": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:5/7": "e97c980660c36c6f40853f6133de9512a7da257399e970d1259276350534d593",
    "a1/fp:5/8": "27d7b1a754997b6d43d2685577e0c569277374a04e087970ae84c46bbc242261",
    "a1/fp:5/9": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:5/10": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:5/11": "2460c669acbf871fbdeaa874b9038254d4b860701eece945999bda587a93453d",
    "a1/fp:7/0": "e5580253463bbe77a8bbf0322683b35b244bf61e5d48b1266268dbc88edfa8a1",
    "a1/fp:7/1": "3c6843c939a80ec95a444a23a53f1fccb33388ff109f273bce75bed64dc6de0b",
    "a1/fp:7/2": "27d7b1a754997b6d43d2685577e0c569277374a04e087970ae84c46bbc242261",
    "a1/fp:7/3": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:7/4": "273e367948bab0111540520a7d719dd83053b88bb707fa7e238262c2966d02ec",
    "a1/fp:7/5": "f46cc4b902d9b7aeb0a8e10cdfa5cb2b4ff6fe7f8cafb798502b1713bcc15b73",
    "a1/fp:7/6": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:7/7": "1d66fdb2b97a63b3353e65f94a451efff9d35525044d5576a303fcc8a4ad375c",
    "a1/fp:7/8": "f46cc4b902d9b7aeb0a8e10cdfa5cb2b4ff6fe7f8cafb798502b1713bcc15b73",
    "a1/fp:7/9": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:7/10": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:7/11": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:101/0": "fb1b08c88700dd4a0a94de8c1fee2712c9d1bbad3621eb3fb42282224f57c1c3",
    "a1/fp:101/1": "9a6c5a3625a16e4a925b3f55f43788cd79efcbbfe5d226cfb8205afc19493489",
    "a1/fp:101/2": "746838580c44d4a2b9b2975c95ed04fbed766c357f01f19b17199a4087e40c85",
    "a1/fp:101/3": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:101/4": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:101/5": "13c4ffb1f56e97961cfdec98f1018ebce48e46d87cc855989fb87333863bf23e",
    "a1/fp:101/6": "c9a80f45709d0918b5eaa5885f731a92ddf7510c76386b2a7e10f10d31564e3a",
    "a1/fp:101/7": "ccf449469db65acf6a2bbdf132adc7c0d4256c7c2c28bb52170182414dd4c8a1",
    "a1/fp:101/8": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:101/9": "e0805a814fa68b4287a77c7a871c31f18e4c320de94383b3168b10879f7dab40",
    "a1/fp:101/10": "0d94189fcaa895c0e0bad51ff5c1d7b6ca08212b54e8f0d419e733724289f12b",
    "a1/fp:101/11": "591dbc1f6e37482be9983c1c1ff7413bf1f7b755a140a8ff921fcd2769761a12",
    "a3/u0": "aee0f3853ba8acd2f2ee4fd25aa4b4465d9e14ccdbd45c2a69a18b27be7952fa",
    "a6/s*t^2": "25b679c68c34e8d2687499384d7c661686c22307fb3094a3fc5c513496ce8a7f",
    "deep/fp:3/0": "ccd76f827c8febb20b2419a2fd5c890113d0b95c9e5e31d808c1a0c31c11ba1d",
    "deep/fp:3/9": "228aadaabd5926f46c726c9c2de15e2b4468f82c007af68a8c6b53add20a784d",
    "deep/fp:3/11": "68dffd15484b2faaa09348c894dcc4677e17c7cd004f61338605870a45332b6d",
    "deep/fp:3/12": "51fca8df7be93d1e37fac4f99ffdaaca642181d7948fe5bde03b67a2e572d873",
    "deep/fp:3/16": "4e2f2cbaff17e60466956b78a65180fc442872eedb7cc6d45c324c856ebc2729",
    "deep/fp:3/38": "3c1e49dbf4b84dfff0d7bf9c263125825f0f8a529e6d6566a48d2dd605ddfc0c",
    "deep/fp:3/40": "f2f6311b63944eaf7266e40a0df7ec46ede6adab93e148468ceb3101e3b159b5",
    "deep/fp:3/41": "8098a65feabc45422263d406cecd33c09ec728934906bf9ff9803b56dd7c3886",
    "deep/fp:7/0": "f1da38afc02324948a20c05f3c814f893979835b2821798ebd59142131c909d7",
    "deep/fp:7/9": "b712f5304a988249af5d1181aae5f45b47ca4fae8b8ca1e3f94100c079e446b3",
    "deep/fp:7/11": "1a696c8b9e0cbc0115de75e4b3fe60e5f27dfdd506ebd50f61d7a04588e115bc",
    "deep/fp:7/12": "5e684c456df7f9cc7d1665e5fcb9ce18baac8486b2d03997a286a60bbab641b2",
    "deep/fp:7/41": "a39e3bf6a62611fbf68e87b47f54b5e750ac8f400343e0dc982bf791e86f282b",
    "deep/fp:7/44": "f1ab68a44fe21f12f33866b5079f8d588edf5f11d40aeead93356b4e3204641f",
    "deep/fp:7/45": "668c682087bd9778ffe57fbd007a5c454cceae6a2cbdc8d201142bf7e9bce077",
    "deep/fp:7/63": "8c562d600ed270f911f891866be23284705cf868c3930b8bb8f4c32be957e37b",
}


def _digest(u, result):
    blob = json.dumps(transcript(u, result))
    return hashlib.sha256(blob.encode()).hexdigest()


def a1_cases():
    for p in (3, 5, 7, 101):
        field = make_field(FieldSpec.prime_closure(p))
        rng = random.Random(20240800 + p)
        for i in range(A1_PREFIX):
            u, _ = random_involution(field, rng, degree_bound=3)
            yield f"a1/fp:{p}/{i}", u


def a3_a6_cases():
    F7 = make_field(FieldSpec.prime_closure(7))
    inv2 = F7.from_int(2).inv()
    f0 = LaurentPoly.from_terms(F7, {-1: inv2, 1: -inv2})
    g0 = LaurentPoly.one(F7) + LaurentPoly.from_terms(F7, {1: inv2, -1: -inv2})
    yield "a3/u0", AlgebraElement(f0, g0)
    yield "a6/s*t^2", evaluate("s*t^2", make_field(FieldSpec.rationals()))


def deep_cases():
    for p, seeds in DEEP_SEEDS.items():
        field = make_field(FieldSpec.prime_closure(p))
        for seed in seeds:
            u, _ = random_involution(field, random.Random(seed), degree_bound=6)
            yield f"deep/fp:{p}/{seed}", u


def _max_root_level(result):
    d = result.details
    return max(r.level for ms in (d.one_plus_f_primes, d.g_primes) for r, _ in ms)


@pytest.mark.parametrize("cases", [a1_cases, a3_a6_cases, deep_cases])
def test_transcripts_match_golden(cases):
    got = {}
    for name, u in cases():
        result = classify(u)
        got[name] = _digest(u, result)
        if name.startswith("deep/"):
            # keeps the deep cases doing what they are here for
            assert _max_root_level(result) >= 9, name
    expected = {k: v for k, v in GOLDEN.items() if k in got}
    assert len(expected) == len(got)
    assert got == expected
