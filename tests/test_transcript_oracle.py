"""Classification transcripts checked by an oracle that shares no code with the pipeline.

The oracle reads only what a user sees: the field flag, the input string
str(u) and the transcript JSON.  It parses both itself, and it does its
arithmetic in sympy over GF(p) or QQ.  Each element x = f + s*g becomes the
2x2 matrix [[f, g*], [g, f*]] of Laurent polynomials (star is t -> t^-1),
and every matrix of one case is multiplied by the same power t^N that clears
its negative exponents.  Then u^2 = 1, det nu = 1 and nu * target = u * nu
are polynomial identities.  The label is recomputed from the four characters
chi(s) = a, chi(t) = b with a, b in {1, -1}: chi(u) = f(b) + a*g(b) is 1 for
every character when u = 1, -1 for every one when u = -1, and
eps * a * b^theta when u is conjugate to eps * s * t^theta.  eps and theta
are also read from sympy's gcd P = gcd(g, 1+f), with t-powers cleared: with
dv = val(1+f) + val(g/P) + deg(g/P), theta = dv mod 2 and eps is
lead(1+f) / lowest(g/P), as the classification module's docstring derives.

Only level-1 and rational coefficients are read.  A witness printed at a
tower level above 1 ("[..]@d") is out of scope.
"""

import random
import re
from fractions import Fraction

import pytest
from test_golden import a1_cases, a3_a6_cases, deep_cases, q_cases

from dihedral.algebra import CanonicalInvolution, random_involution
from dihedral.classification import (
    ClassificationResult,
    _witness,
    classify,
    gcd_split,
    transcript,
    verify_witness,
)
from dihedral.errors import NotSplitOverField
from dihedral.fields import FieldSpec, make_field
from dihedral.laurent import LaurentPoly

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")
_TERM = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*|$))?(t(?:\^(-?\d+))?)?$")


class Scope(Exception):
    """The case has a coefficient the oracle does not read."""


def residue(value, p):
    """value mod p, or value itself over QQ (p is None)."""
    return value if p is None else value % p


def parse_scalar(text, p):
    """A coefficient string as an int mod p, or a Fraction when p is None."""
    if "@" in text:
        raise Scope(text)
    value = Fraction(text)
    if p is not None and value.denominator != 1:
        raise ValueError(f"{text} is not a residue")
    return residue(value if p is None else value.numerator, p)


def parse_laurent(text, p):
    """{exponent: coefficient} from a printed Laurent polynomial, e.g. "2*t^-1 - 1/3 + t"."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    out = {}
    pieces = re.split(r" ([+-]) ", text)
    for k in range(0, len(pieces), 2):
        if k:
            sign = 1 if pieces[k - 1] == "+" else -1
        if "@" in pieces[k]:
            raise Scope(pieces[k])
        m = _TERM.match(pieces[k])
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot read the term {pieces[k]!r}")
        coeff = parse_scalar(m.group(1) or "1", p) * sign
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = residue(out.get(exp, 0) + coeff, p)
    return {e: c for e, c in out.items() if c}


def parse_element(text, p):
    """(f, g) as exponent dicts from a printed element "f + s*(g)", "s*(g)" or "f"."""
    text = text.strip()
    if text.startswith("s*("):
        f_text, g_text = "0", text[3:-1]
    elif " + s*(" in text:
        f_text, g_text = text.split(" + s*(", 1)
        g_text = g_text[:-1]
    else:
        f_text, g_text = text, "0"
    return parse_laurent(f_text, p), parse_laurent(g_text, p)


def read_terms(pairs, p):
    """{exponent: coefficient} from a transcript's [[exponent, "coefficient"], ...]."""
    return {e: parse_scalar(c, p) for e, c in pairs}


def star(poly):
    return {-e: c for e, c in poly.items()}


def matrix(f, g):
    """[[f, g*], [g, f*]] as exponent dicts."""
    return [[f, star(g)], [g, star(f)]]


def cleared(mats, domain):
    """Every entry of every matrix times t^N, as a sympy Poly; N clears all negative exponents."""
    shift = max([0] + [-e for mat in mats for row in mat for entry in row for e in entry])

    def poly(entry):
        terms = {(e + shift,): domain.convert(c) for e, c in entry.items()}
        return sympy.Poly.from_dict(terms or {(0,): domain.zero}, T, domain=domain)

    return shift, [[[poly(entry) for entry in row] for row in mat] for mat in mats]


def matmul(x, y):
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def character(f, g, a, b, p):
    """chi(u) = f(b) + a*g(b) on plain numbers; mod p when p is given."""
    value = sum(c * b ** (e % 2) for e, c in f.items()) + a * sum(c * b ** (e % 2) for e, c in g.items())
    return residue(value, p)


def label_from_characters(f, g, p):
    """(label, eps, theta) recomputed from the four characters; None if they fit no class."""
    chi = {(a, b): character(f, g, a, b, p) for a in (1, -1) for b in (1, -1)}
    if all(v == 1 for v in chi.values()):
        return "1", None, None
    if all(v == residue(-1, p) for v in chi.values()):
        return "-1", None, None
    for eps in (1, -1):
        for theta in (0, 1):
            if all(chi[a, b] == residue(eps * a * b**theta, p) for a, b in chi):
                return f"eps={eps:+d} theta={theta}", eps, theta
    return None


def split_signs(f, g, p, domain):
    """(eps, theta) from P = gcd(g, 1+f) in sympy; eps is None when the lead ratio is no sign."""
    one_plus_f = {e: c for e, c in {**f, 0: residue(f.get(0, 0) + 1, p)}.items() if c}

    def body(poly):
        """The valuation, and the polynomial poly / t^valuation."""
        v = min(poly)
        return v, sympy.Poly.from_dict({(e - v,): domain.convert(c) for e, c in poly.items()}, T, domain=domain)

    (v_a, A), (v_g, G) = body(one_plus_f), body(g)
    cofactor = G.exquo(sympy.gcd(G, A).monic())  # g/P, times t^-v_g
    ratio = domain.convert(A.LC()) / domain.convert(cofactor.TC())
    eps = 1 if ratio == domain.one else -1 if ratio == -domain.one else None
    return eps, (v_a + v_g + cofactor.degree()) % 2


def oracle_failures(field_flag, input_text, record):
    """The names of the checks the transcript fails; [] when it holds."""
    p = None if field_flag == "q" else int(field_flag.split(":")[1])
    domain = sympy.QQ if p is None else sympy.GF(p)
    f, g = parse_element(input_text, p)
    nu_f = read_terms(record["witness"]["f"], p)
    nu_g = read_terms(record["witness"]["g"], p)
    failures = []

    expected = label_from_characters(f, g, p)
    if expected != (record["label"], record["epsilon"], record["theta"]):
        failures.append("label")
    if record["label"] in ("1", "-1"):
        target = ({0: residue(int(record["label"]), p)}, {})
    else:
        target = ({}, {record["theta"]: residue(record["epsilon"], p)})

    shift, (U, V, S) = cleared([matrix(f, g), matrix(nu_f, nu_g), matrix(*target)], domain)
    t2n = sympy.Poly.from_dict({(2 * shift,): domain.one}, T, domain=domain)
    zero = t2n - t2n
    if matmul(U, U) != [[t2n, zero], [zero, t2n]]:
        failures.append("involution")
    if V[0][0] * V[1][1] - V[0][1] * V[1][0] != t2n:
        failures.append("det_one")
    if matmul(V, S) != matmul(U, V):
        failures.append("conjugation")
    if g and split_signs(f, g, p, domain) != (record["epsilon"], record["theta"]):
        failures.append("split")
    return failures


def cases_with_transcripts():
    """(name, field flag, input string, transcript) for every classified golden input in scope."""
    out = []
    for cases in (a1_cases, a3_a6_cases, deep_cases, q_cases):
        for name, u in cases():
            try:
                result = classify(u)
            except NotSplitOverField:
                continue
            out.append((name, u.field.describe(), str(u), transcript(u, result)))
    return out


def a1_prefix(n):
    """The first n inputs of each of A1's four seeded streams."""
    for p in (3, 5, 7, 101):
        field = make_field(FieldSpec.prime_closure(p))
        rng = random.Random(20240800 + p)
        for i in range(n):
            yield f"a1/fp:{p}/{i}", random_involution(field, rng, degree_bound=3)[0]


@pytest.fixture(scope="module")
def golden_transcripts():
    return cases_with_transcripts()


def test_golden_transcripts_pass_the_oracle(golden_transcripts):
    checked = 0
    for name, flag, text, record in golden_transcripts:
        try:
            assert oracle_failures(flag, text, record) == [], name
        except Scope:
            continue
        checked += 1
    # every golden witness is at level 1 or rational, so none is skipped
    assert checked == len(golden_transcripts) > 100


def forged(record, **changes):
    out = dict(record, witness={k: [list(t) for t in v] for k, v in record["witness"].items()})
    out.update(changes)
    return out


def bumped_witness(record, p):
    """The transcript with the witness's first coefficient c changed by one.

    It becomes c + 1, or c - 1 where c + 1 = -c (c = 1 over F_3): -nu is a
    witness whenever nu is.
    """
    out = forged(record)
    part = out["witness"]["f"] or out["witness"]["g"]
    c = Fraction(part[0][1])
    value = c + 1 if residue(2 * c + 1, p) else c - 1
    part[0][1] = str(residue(value, p))
    return out


def test_forged_transcripts_fail_the_oracle(golden_transcripts):
    forgeries = 0
    for name, flag, text, record in golden_transcripts:
        if record["epsilon"] is None:
            continue
        p = None if flag == "q" else int(flag.split(":")[1])
        eps, theta = record["epsilon"], record["theta"]
        wrong_eps = forged(record, epsilon=-eps, label=f"eps={-eps:+d} theta={theta}")
        wrong_theta = forged(record, theta=1 - theta, label=f"eps={eps:+d} theta={1 - theta}")
        for wrong in (wrong_eps, wrong_theta):
            failures = oracle_failures(flag, text, wrong)
            assert {"label", "conjugation", "split"} <= set(failures), name
        assert oracle_failures(flag, text, bumped_witness(record, p)), name
        forgeries += 1
    assert forgeries > 50


def test_a1_prefix_passes_the_oracle():
    checked = set()
    for name, u in a1_prefix(50):
        record = transcript(u, classify(u))
        assert oracle_failures(u.field.describe(), str(u), record) == [], name
        checked.add(record["label"])
    assert len(checked) == 6


def test_q_refusals_have_a_witness_over_q():
    # classify refuses these because 1+f or g has an irrational root, yet the
    # gcd split needs no root in K (classification's docstring): its witness
    # passes the checks of the library and of sympy, with the seeded label
    Q = make_field(FieldSpec.rationals())
    rng = random.Random(8)
    refused = 0
    for i in range(150):
        u, label = random_involution(Q, rng, degree_bound=3)
        try:
            classify(u)
            continue
        except NotSplitOverField:
            refused += 1
        one_plus_f = LaurentPoly.one(Q) + u.f
        eps, theta, g1, g2 = gcd_split(one_plus_f, u.g)
        result = ClassificationResult(
            CanonicalInvolution.eps_theta(eps, theta), _witness(one_plus_f, u.g, eps, theta, g1, g2)
        )
        assert result.label == label, i
        assert all(verify_witness(u, result).values()), i
        assert oracle_failures("q", str(u), transcript(u, result)) == [], i
    assert refused >= 30  # keeps the inputs doing what they are here for


def test_split_signs_alone_reject_a_forged_eps_or_theta(golden_transcripts):
    forgeries = 0
    for name, flag, text, record in golden_transcripts:
        if record["epsilon"] is None:
            continue
        p = None if flag == "q" else int(flag.split(":")[1])
        domain = sympy.QQ if p is None else sympy.GF(p)
        f, g = parse_element(text, p)
        eps, theta = record["epsilon"], record["theta"]
        assert split_signs(f, g, p, domain) == (eps, theta), name
        for forged_pair in ((-eps, theta), (eps, 1 - theta)):
            assert split_signs(f, g, p, domain) != forged_pair, name
        forgeries += 1
    assert forgeries > 50


def test_parser_reads_the_printed_forms():
    assert parse_laurent("2*t^-1 - 1/3 + t - t^4", None) == {
        -1: Fraction(2), 0: Fraction(-1, 3), 1: Fraction(1), 4: Fraction(-1)
    }
    assert parse_laurent("-3 + 6*t^2", 7) == {0: 4, 2: 6}
    assert parse_element("s*(t^-1)", 5) == ({}, {-1: 1})
    assert parse_element("1 + t + s*(-t - 2)", 5) == ({0: 1, 1: 1}, {1: 4, 0: 3})
    with pytest.raises(Scope):
        parse_laurent("[1,2]@2*t", 7)
