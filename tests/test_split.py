"""The gcd split that classify uses, checked against the root path and the characters.

classify reads the label and the witness off gcd_split, which needs no
roots.  The root path (factor_linear, match_subset, extract_eps_theta,
build_witness) still fills in ClassificationResult.details, so here it is
the oracle: on every golden input the two must give the same eps, theta,
g1, g2 and witness.  The label is also read off the four sign characters,
which share no code with either path.
"""

import hashlib
import json
import random

import pytest

from dihedral.algebra import (
    AlgebraElement,
    CanonicalInvolution,
    Character,
    conjugate,
    random_involution,
    to_idempotent,
    unipotent_unit,
)
from dihedral.classification import (
    build_witness,
    classify,
    coefficient_level,
    extract_eps_theta,
    gcd_split,
    match_subset,
    transcript,
    verify_witness,
)
from dihedral.errors import LevelOverflow, NotSplitOverField
from dihedral.fields import FieldSpec, make_field
from dihedral.laurent import LaurentPoly

from test_golden import a1_cases, a3_a6_cases, deep_cases, q_cases


def character_label(u):
    """The one label whose character vector is u's (A2: the six vectors differ)."""
    chars = Character.all_four()
    vec = [ch.of(u) for ch in chars]
    found = [
        lab
        for lab in CanonicalInvolution.all_six()
        if [ch.of(lab.element(u.field)) for ch in chars] == vec
    ]
    assert len(found) == 1
    return found[0]


def root_path(u):
    """(eps, theta, nu) from the factorizations of 1+f and g into linear primes."""
    field = u.field
    one_plus_f = LaurentPoly.one(field) + u.f
    fac_f, fac_g = one_plus_f.factor_linear(), u.g.factor_linear()
    step = coefficient_level(field, one_plus_f, u.g)
    in_I = match_subset(fac_f.primes, fac_g.primes)
    eps, theta, _, l = extract_eps_theta(fac_f, fac_g, in_I, field, step)
    nu, _, _ = build_witness(u, fac_f, fac_g, in_I, eps, theta, l, field, step)
    return eps, theta, nu


# sha256 of json.dumps(classify(u).to_json()) for every golden input that
# classify accepts.  test_golden pins the transcripts; these also pin how the
# details print (delta, gamma, the primes, in_I).  Checked here, where the
# details are built anyway.
TO_JSON_GOLDEN = {
    "a1/fp:3/0": "968decb236377ceb655ef63694f66ad28cac346b225977c66d627d25eeadf5f6",
    "a1/fp:3/1": "1f0dc98934d3b20b687762c791f1d4ee49404d2cbd287fe591a82bab17e92e6a",
    "a1/fp:3/2": "b0391c35626e6f0f6bd16fceee2017bce849a88778d1867826b9e7f832d61c6e",
    "a1/fp:3/3": "b9eaa89920fb119c8c163e8f151f9611bbf736d4b3260ecdb5705752a450efc2",
    "a1/fp:3/4": "e2689e3bc637e3ab93f60090a32b0cd54ed1027084c0e618301c2fc7288f4cbd",
    "a1/fp:3/5": "60a5019b2e5500acf623d742eeb0f4072505265eca1929930e6d6f482dc8694f",
    "a1/fp:3/6": "0b8687e0088d14d3d0db03c07ae1acb7cced9f3b410526e61abca76169990ae8",
    "a1/fp:3/7": "d7777f15ffd5e74e6713a8c93010966a94a285c1146337f083ed574d75a984aa",
    "a1/fp:3/8": "ba9644593f458da8a9b362f17bbc4a943727a3799541fcf5bbc334d7194b9b0e",
    "a1/fp:3/9": "d3999d775eb377dd4bb24767b51d30b7780305465162e2f78bcded421cd9aec7",
    "a1/fp:3/10": "d144fcf682bb19ecea89d2bd0244518361c09977d9e44170d032b86128993877",
    "a1/fp:3/11": "6a945a4aa34d817327eaf3b7f18712a64cdc00081ba055f15d93495470bc0788",
    "a1/fp:5/0": "e5c940c13d41075e912ef2daf5de536647ee72b028b911e316577bd94d682994",
    "a1/fp:5/1": "97a73f45266e01546d50d115251e2e717e2457b0bd0239784f4387c20341872a",
    "a1/fp:5/2": "97a73f45266e01546d50d115251e2e717e2457b0bd0239784f4387c20341872a",
    "a1/fp:5/3": "3194325a90a2a9b0a0465b51cfeb5e2356220e9c96331f299dfa75ad79395bb1",
    "a1/fp:5/4": "2493621700bdd904bf69f484b5b815fad9bddd7502e0f9536ff8a6b1f9754b93",
    "a1/fp:5/5": "bb0716f5fd6ea26779be48235e0b982aad262c7e21fb91fc9d5cc8e67e26577e",
    "a1/fp:5/6": "bb0716f5fd6ea26779be48235e0b982aad262c7e21fb91fc9d5cc8e67e26577e",
    "a1/fp:5/7": "33f4caa8154bb82f8dd074465aabeaabbe4714d174fc0978a9602d01120a55ef",
    "a1/fp:5/8": "2b165d295be4cf8e69e3f6c2e2ae31965b7b38975680a9f71f50a7d44bd128b7",
    "a1/fp:5/9": "bb0716f5fd6ea26779be48235e0b982aad262c7e21fb91fc9d5cc8e67e26577e",
    "a1/fp:5/10": "bb0716f5fd6ea26779be48235e0b982aad262c7e21fb91fc9d5cc8e67e26577e",
    "a1/fp:5/11": "e5c940c13d41075e912ef2daf5de536647ee72b028b911e316577bd94d682994",
    "a1/fp:7/0": "251aa517208a8c85f389c02fb038b22651288cb19b8a99685016f9fcd06c237b",
    "a1/fp:7/1": "a16fd1a0d613b7b9ae483b6ec5cd9f2668770b7e80f04764e2e63f43866cb893",
    "a1/fp:7/2": "c80961b55fcc4b5f856766e8b081b8b4aeea7907236f0618b4ba4b29762add52",
    "a1/fp:7/3": "e5c7540c88a80ecffa92a5f2995307beb1bbeec24ab10a9fa3139e4ca976a4a3",
    "a1/fp:7/4": "a5176dab175cd477766c39eff92d97b16d6929dad0400ad18f42e78f6a7b7a72",
    "a1/fp:7/5": "10e1b93270f3245650a51a327f6d741dfeffd986f3d8f62ee9aaae29d1c28075",
    "a1/fp:7/6": "bfb7b9a22914c74b0dcab2b087a4920e872144db970fbd3f54674e0e1576f619",
    "a1/fp:7/7": "2cded650dc2f9800092e8727c5ae4ae578bcba53d13b578058c579302479ccac",
    "a1/fp:7/8": "10e1b93270f3245650a51a327f6d741dfeffd986f3d8f62ee9aaae29d1c28075",
    "a1/fp:7/9": "e5c7540c88a80ecffa92a5f2995307beb1bbeec24ab10a9fa3139e4ca976a4a3",
    "a1/fp:7/10": "e5c7540c88a80ecffa92a5f2995307beb1bbeec24ab10a9fa3139e4ca976a4a3",
    "a1/fp:7/11": "e5c7540c88a80ecffa92a5f2995307beb1bbeec24ab10a9fa3139e4ca976a4a3",
    "a1/fp:101/0": "ee4b885752f0d3c1e5662e643f8273edb75da4413eb53fef236d9dd7d5a09e41",
    "a1/fp:101/1": "3dfdf747a05d3b1b27612efd4c57c2189291b704e36aed321bb26e27598e2770",
    "a1/fp:101/2": "03ea6b1d41f5528347f2f05405371b2bdca8dc68d1ecbdce65d7f37471e890a5",
    "a1/fp:101/3": "7ea5a6c75fbd14700efd497ab673630fe34506864d81c689e5fe65f235753e53",
    "a1/fp:101/4": "7ea5a6c75fbd14700efd497ab673630fe34506864d81c689e5fe65f235753e53",
    "a1/fp:101/5": "a68269ea1e1799ce8d78a010cb5157c8b4515ed1dc68061c1feeef7d7a67106c",
    "a1/fp:101/6": "d69cd79cbb33f00c6206e64b1bfdde570786d8363dcc860d501e9b10bf683927",
    "a1/fp:101/7": "d6de5036ed211812803b8c302ee159ed7c551edaf6b9a295fc37b3790a1c8742",
    "a1/fp:101/8": "7ea5a6c75fbd14700efd497ab673630fe34506864d81c689e5fe65f235753e53",
    "a1/fp:101/9": "7ea5a6c75fbd14700efd497ab673630fe34506864d81c689e5fe65f235753e53",
    "a1/fp:101/10": "0af116544a5075b6a511a03229709b218dffb565647e692fbaef8a41ec720d43",
    "a1/fp:101/11": "d6b73e4af33a128217ac00cc167249fd39cde1bb1c15062cde06ecae01c05404",
    "a3/u0": "4179af664123f9d411ad7f53714fabdc9bd7a3991c1c73a5bc00dbd8e7050cbb",
    "a6/s*t^2": "4331e0a9ebb94e4956470f3e3b63591f85b186ead01c2bca211dad3b2be26383",
    "deep/fp:3/0": "00aa581c27520b52425a57f5f6339b7ca2bf3b50b4329bd7648f97e1859e241c",
    "deep/fp:3/9": "24d28ca5d2f3b878c8ed3dcf5edc5fc6922bd7429f2becc85294534ef88f0b35",
    "deep/fp:3/11": "925fd30b3bdbd1977e6d0df0715ce9aeb3f82a8ec283714960119d70553d4033",
    "deep/fp:3/12": "dfe55ae544db6d2b337c927885b9aba83ddf8fdcced7043893d9df0b9a6c4863",
    "deep/fp:3/16": "b343cbae86105799f6faf8da1d2c5cc661b4bde7893ff01566b1f08dd301f39b",
    "deep/fp:3/38": "0ef7fe94975ac13096ef8e522a116682455a0ba89b90fc24824a6af429d17bb7",
    "deep/fp:3/40": "ae99c279fb6fd130c9482b8e7f2ab8732b8bf89e2486389a8e9d93a4ccf4078d",
    "deep/fp:3/41": "f056de8830ad718ba5bdc1300c9b9712552f5b85f97d031374abbc6d8ba44191",
    "deep/fp:7/0": "dbf1a22a74597b0f16eb76f6f2844bfbee5c662d3d7e4fa057a92c3eeb70a80c",
    "deep/fp:7/9": "25f6bb75625e69a60365fe690f509cc12ffbc2264d2492a476609b63dff8bf82",
    "deep/fp:7/11": "c3e6af94973e6068388d5afd146b8666164539b06f3dcc7fa075f0b5d5e17f70",
    "deep/fp:7/12": "946a70d623cc039a9da0d3b389b3e33be67273b337ee71b132c85341c6d896a2",
    "deep/fp:7/41": "b5b854a5f097545a08de92fdcef0f7004fc6e3bc0e78c493b82ef9bed3efc216",
    "deep/fp:7/44": "a5eb1cc6f0dd837cde0501b6f83b3e772eb2184f53455fcd48c31fd6061859d5",
    "deep/fp:7/45": "e4c3b6313edc1b4b614c356288116bab91374dbcd438789bbaf41a5a3b7eb400",
    "deep/fp:7/63": "0a2580cd5814305c327930cf325d568fa8fe778abee6995e92c1267c338ca583",
    "q/3/1": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/2": "7bc162663be85b77845193e6d8c71bc49a33d9e63b5563883409cd283e122893",
    "q/3/3": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/4": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/5": "a475d9a501f74ffe31613c20cd95453eed8dd6a972fbfa4d084fa3ff2d045b50",
    "q/3/6": "b02bf435d3bf108dfaef6774633fa9721cc552afb9fce38e9b4f8f20095bb7c6",
    "q/3/7": "1185af58a3468f677010255f4b8175c7b528d3f7dcedf7a52c53b62bd4109a29",
    "q/3/8": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/9": "d9a09359f86e2d2ef9cc4dbd81fdc6c44003a928999b09f0a96cc6545a54e894",
    "q/3/10": "b02bf435d3bf108dfaef6774633fa9721cc552afb9fce38e9b4f8f20095bb7c6",
    "q/3/12": "2445fbfe5e4c4cc9ad377b8d99fd98a9491553b8ae86e9e0bed824670a313a10",
    "q/3/13": "2110ad6eee7ac948937635f2d08c82605a35d7824134b9d2fda57ea1176a7a0f",
    "q/3/14": "7bc162663be85b77845193e6d8c71bc49a33d9e63b5563883409cd283e122893",
    "q/3/15": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/18": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/19": "9b1b7f69440cc328a21d4502bba457a6745d458f3cc7f8c2b1de223f3bc853c3",
    "q/3/20": "722dcba297b1b60e932bc3d02a6e659063e3f1589a53fc9790d7d490f66957be",
    "q/3/21": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/3/22": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/1": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/2": "7bc162663be85b77845193e6d8c71bc49a33d9e63b5563883409cd283e122893",
    "q/6/3": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/4": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/5": "a475d9a501f74ffe31613c20cd95453eed8dd6a972fbfa4d084fa3ff2d045b50",
    "q/6/6": "b02bf435d3bf108dfaef6774633fa9721cc552afb9fce38e9b4f8f20095bb7c6",
    "q/6/7": "1185af58a3468f677010255f4b8175c7b528d3f7dcedf7a52c53b62bd4109a29",
    "q/6/8": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/9": "b4caf3c933350f0c54144e9650337c16e777f7579444f02c9d1daec8177cb643",
    "q/6/10": "b02bf435d3bf108dfaef6774633fa9721cc552afb9fce38e9b4f8f20095bb7c6",
    "q/6/12": "1135e2c083354b836493aad3659719fa4dd1350f930e7e269cafe90df38497d3",
    "q/6/13": "a55e9329d903f47821ac5a84546a906e2ab6279eb1dee0e773b146a5cc844168",
    "q/6/14": "7bc162663be85b77845193e6d8c71bc49a33d9e63b5563883409cd283e122893",
    "q/6/15": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/18": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/19": "9b1b7f69440cc328a21d4502bba457a6745d458f3cc7f8c2b1de223f3bc853c3",
    "q/6/20": "3511583dcc18b53e31e2373096e12cdcc2b2d34fc2cdb23f83b96dde4c6ddf4a",
    "q/6/21": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
    "q/6/22": "5bfb6de566ad58fafed9bfef7e49afa32bc4dc4cdc67c2da0f2b974cf95d1bc4",
}


@pytest.mark.parametrize("cases", [a1_cases, a3_a6_cases, deep_cases, q_cases])
def test_split_agrees_with_the_root_path(cases):
    non_central = 0
    to_json = {}
    for name, u in cases():
        try:
            res = classify(u)
        except NotSplitOverField:
            continue
        to_json[name] = hashlib.sha256(json.dumps(res.to_json()).encode()).hexdigest()
        assert res.label == character_label(u), name
        if res.label.kind != "eps":
            assert res.details is None, name
            continue
        non_central += 1
        eps, theta, g1, g2 = gcd_split(LaurentPoly.one(u.field) + u.f, u.g)
        assert (eps, theta) == (res.label.eps, res.label.theta), name
        assert (res.details.g1, res.details.g2) == (g1, g2), name
        assert root_path(u) == (eps, theta, res.witness), name
    assert non_central >= 2
    assert to_json == {name: TO_JSON_GOLDEN[name] for name in to_json}


def test_gcd_split_multiplies_no_laurent_polys(monkeypatch):
    # the sign and parity are read off g/P; P (g/P)* is never multiplied out
    inputs = [
        (LaurentPoly.one(u.field) + u.f, u.g)
        for name, u in (*a1_cases(), *deep_cases(), *q_cases())
        if name.startswith(("a1/fp:7/", "deep/fp:7/", "q/")) and not u.g.is_zero
    ]
    calls = []
    mul = LaurentPoly.__mul__

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    for one_plus_f, g in inputs:
        gcd_split(one_plus_f, g)
    assert calls == []
    assert len(inputs) >= 40


def test_split_classifies_past_the_tower_bound():
    # at p = 1048573 the roots of 1+f and g often live above level 4, so the
    # root path refuses; the split never leaves the coefficients' level
    field = make_field(FieldSpec.prime_closure(1048573, 4))
    non_central = refused = 0
    for seed in range(128):
        u, label = random_involution(field, random.Random(seed), degree_bound=3)
        res = classify(u)
        assert res.label == label, seed
        assert all(verify_witness(u, res).values()), seed
        if label.kind == "eps":
            non_central += 1
            try:
                res.details
            except LevelOverflow:
                refused += 1
                assert "factorization" not in res.to_json(), seed
            else:
                assert "factorization" in res.to_json(), seed
    assert non_central >= 70
    assert refused >= 20  # keeps the inputs doing what they are here for


def level2_cases(p=7, d=2, n=12, seed=4242):
    """n seeded involutions over F_p bounded at level d, with coefficients at level d.

    Each is a canonical involution, cycling through the four eps, theta
    classes, conjugated by a unipotent unit with level-d coefficients.
    """
    field = make_field(FieldSpec.prime_closure(p, d))
    rng = random.Random(seed)
    e = to_idempotent(-AlgebraElement.s(field))
    for i in range(n):
        x = AlgebraElement(
            LaurentPoly.from_terms(
                field, {0: field.random_element(rng, d), 1: field.random_element(rng, d)}
            ),
            LaurentPoly.from_terms(field, {-1: field.random_element(rng, d)}),
        )
        label = CanonicalInvolution.eps_theta(1 - 2 * (i % 2), (i // 2) % 2)
        yield conjugate(unipotent_unit(e, x), label.element(field)), label


def test_split_runs_at_the_coefficient_level():
    # classify succeeds even where the roots need a level above the bound
    beyond = 0
    for i, (u, label) in enumerate(level2_cases()):
        field = u.field
        assert coefficient_level(field, u.f, u.g) == 2, i
        res = classify(u)
        assert res.label == label, i
        assert all(verify_witness(u, res).values()), i
        _, _, g1, g2 = gcd_split(LaurentPoly.one(field) + u.f, u.g)
        assert coefficient_level(field, g1, g2) <= 2, i
        try:
            res.details
        except LevelOverflow:
            beyond += 1
    assert beyond >= 1


# sha256 of json.dumps(transcript(u, classify(u))) for level2_cases().  The
# root path printed these witnesses with coefficients at whatever level its
# orbit products left them; the split prints each at its minimal level.
LEVEL2_GOLDEN = [
    "78bf8496533dab0ac7fee8936657cb3776f7bfcc3a0f251f439bb6d7bd71bfd6",
    "aa4ea5854da0a0a6d4295fa12dcf7c2162a13504ea28b056547a7867519c8149",
    "c1c1a2965b880e72fbde1748eeec0b5e7732ea084bc8feef0932205945c3343c",
    "e05f070eca6fd170dd0a7e57ad43e9b159fc1fd1f86df5ffa184167d7f9fea68",
    "4813ccaf99c0c23a9ed58157053e3b364dce3aad60bc4a294938db254c641aae",
    "7512f506481dd98f29779aa12e089f0f911275e28d9b4bbfa66935ef8e96ae6b",
    "d6e982f6dec6f6ca3792c9e13b22397efab73dc52262830fe3caad5d32982d9e",
    "d9b409ab711bda78e3859023f7869c6b9a348917a8c2e51aed12ae8663bcaf9d",
    "58ca0f8c8f2d24f7b6055811dec03a9bc585c48100fb8be868baf82aca3c3ca5",
    "89b5ba10034ce658a04e9409ee4b16644ff277ad3349f8798961dab77305ddf1",
    "de8ba9e5ed592ab72a82b448583e719d7a7fe647e857f49d51d5842d213126eb",
    "1d2765912d61588ccaf3b592b83f31244bab19825a936671317e46e0d3cd2f8a",
]


def test_level2_witnesses_print_at_minimal_level():
    got = []
    for u, _ in level2_cases():
        res = classify(u)
        for _, c in (*res.witness.f.terms(), *res.witness.g.terms()):
            assert c.level == u.field.canonical(c).level
        blob = json.dumps(transcript(u, res))
        got.append(hashlib.sha256(blob.encode()).hexdigest())
    assert got == LEVEL2_GOLDEN
