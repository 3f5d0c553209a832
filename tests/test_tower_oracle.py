"""Classification above level 1, checked by an oracle that shares no code with the pipeline.

At a prime level d the only proper sublevel of F_{p^d} is F_p, which the
tower embeds as the constants.  So a coefficient printed "[c0,...]@d" is
c0 + c1*y + ... in GF(p)[y]/(m_d), one printed "c" is the constant c, and
the oracle needs no embedding that the code chose.  It needs m_d, which the
fields module defines: the first monic irreducible of degree d in the
constant-first scan, where candidate k = 0, 1, ... has the base-p digits of
k as its coefficients, constant first, below a leading 1.  The oracle finds
m_d by that scan with sympy's irreducibility test, reads only str(u) and the
transcript JSON into sympy polynomials over GF(p)[y]/(m_d), and checks
u^2 = 1, det nu = 1 and nu * target = u * nu with t-powers cleared, as
test_transcript_oracle does at level 1.  The label is recomputed from the
four characters chi(s) = a, chi(t) = b with a, b in {1, -1}.
"""

import re
from functools import cache

import pytest
from test_split import level2_cases
from test_transcript_oracle import cleared, forged, matmul, matrix

from dihedral.classification import classify, transcript

sympy = pytest.importorskip("sympy")
FiniteExtension = pytest.importorskip("sympy.polys.agca.extensions").FiniteExtension

Y = sympy.Symbol("y")
_TERM = re.compile(r"^(?:(\[\d+(?:,\d+)*\]@\d+|\d+)(?:\*|$))?(t(?:\^(-?\d+))?)?$")
LEVELS = [(p, d) for p in (3, 7, 101) for d in (2, 3, 5)]
PER_LEVEL = 10
FORGED = 4  # forge the first cases of each corpus: one of each eps, theta class


@cache
def modulus(p, d, skip=0):
    """The first monic irreducible of degree d in the constant-first scan, after skip others."""
    k = 0
    while True:
        cand = [k // p**i % p for i in range(d)] + [1]
        if sympy.Poly(cand[::-1], Y, modulus=p).is_irreducible:
            if not skip:
                return cand
            skip -= 1
        k += 1


def quotient(p, m):
    """GF(p)[y]/(m) as a sympy domain; m is monic, constant first."""
    return FiniteExtension(sympy.Poly(m[::-1], Y, modulus=p))


def read_scalar(text, K, d):
    """A printed coefficient as an element of K = GF(p)[y]/(m_d)."""
    if "@" not in text:
        return K.convert(int(text))
    coords, level = text[1:].split("]@")
    coords = [int(c) for c in coords.split(",")]
    if int(level) != d or len(coords) != d:
        raise ValueError(f"{text} is not a level-{d} coefficient")
    return K.convert(sum(c * Y**i for i, c in enumerate(coords)))


def read_laurent(text, K, d):
    """{exponent: coefficient} from a printed Laurent polynomial; residues print nonnegative."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.strip().split(" + "):
        m = _TERM.match(term)
        if not m or not (m.group(1) or m.group(2)):
            raise ValueError(f"cannot read the term {term!r}")
        exp = 0 if not m.group(2) else int(m.group(3) or 1)
        out[exp] = out.get(exp, K.zero) + read_scalar(m.group(1) or "1", K, d)
    return {e: c for e, c in out.items() if c != K.zero}


def read_element(text, K, d):
    """(f, g) as exponent dicts from a printed element "f + s*(g)", "s*(g)" or "f"."""
    text = text.strip()
    if text.startswith("s*("):
        f_text, g_text = "0", text[3:-1]
    elif " + s*(" in text:
        f_text, g_text = text.split(" + s*(", 1)
        g_text = g_text[:-1]
    else:
        f_text, g_text = text, "0"
    return read_laurent(f_text, K, d), read_laurent(g_text, K, d)


def label_from_characters(f, g, K):
    """(label, eps, theta) recomputed from the four characters; None if they fit no class."""

    def at(poly, b):
        return sum((c * K.convert(b ** (e % 2)) for e, c in poly.items()), K.zero)

    chi = {(a, b): at(f, b) + K.convert(a) * at(g, b) for a in (1, -1) for b in (1, -1)}
    if all(v == K.one for v in chi.values()):
        return "1", None, None
    if all(v == -K.one for v in chi.values()):
        return "-1", None, None
    for eps in (1, -1):
        for theta in (0, 1):
            if all(chi[a, b] == K.convert(eps * a * b**theta) for a, b in chi):
                return f"eps={eps:+d} theta={theta}", eps, theta
    return None


def oracle_failures(p, d, input_text, record, m=None):
    """The names of the checks the transcript fails, read in GF(p)[y]/(m); m defaults to m_d."""
    K = quotient(p, m or modulus(p, d))
    f, g = read_element(input_text, K, d)
    nu = [{e: read_scalar(c, K, d) for e, c in record["witness"][half]} for half in "fg"]
    failures = []
    if label_from_characters(f, g, K) != (record["label"], record["epsilon"], record["theta"]):
        failures.append("label")
    if record["label"] in ("1", "-1"):
        target = ({0: K.convert(int(record["label"]))}, {})
    else:
        target = ({}, {record["theta"]: K.convert(record["epsilon"])})

    shift, (U, V, S) = cleared([matrix(f, g), matrix(*nu), matrix(*target)], K)
    t2n = sympy.Poly.from_dict({(2 * shift,): K.one}, sympy.Symbol("t"), domain=K)
    zero = t2n - t2n
    if matmul(U, U) != [[t2n, zero], [zero, t2n]]:
        failures.append("involution")
    if V[0][0] * V[1][1] - V[0][1] * V[1][0] != t2n:
        failures.append("det_one")
    if matmul(V, S) != matmul(U, V):
        failures.append("conjugation")
    return failures


@pytest.fixture(scope="module")
def level_transcripts():
    """(i, p, d, str(u), transcript): level2_cases, then PER_LEVEL seeded cases per (p, d).

    i is the index of the case in its corpus; (p, d, i) names it.
    """
    corpora = [(7, 2, level2_cases())]
    corpora += [(p, d, level2_cases(p, d, PER_LEVEL, 100 * p + d)) for p, d in LEVELS]
    out = []
    for p, d, cases in corpora:
        for i, (u, _) in enumerate(cases):
            out.append((i, p, d, str(u), transcript(u, classify(u))))
    return out


def test_moduli_of_the_scan():
    # the binomials x^d + c come first in the scan: x^2 + 1 over F_3 and F_7
    assert modulus(3, 2) == modulus(7, 2) == [1, 0, 1]
    # no x^3 + c is irreducible over F_3 (3 does not divide p - 1); x^3 + 2x + 1 is
    assert modulus(3, 3) == [1, 2, 0, 1]
    assert modulus(3, 2, skip=1) == [2, 1, 1]


def test_level_d_transcripts_pass_the_oracle(level_transcripts):
    printed_at_d = set()
    for i, p, d, text, record in level_transcripts:
        assert oracle_failures(p, d, text, record) == [], (p, d, i)
        if any("@" in c for half in "fg" for _, c in record["witness"][half]):
            printed_at_d.add((p, d))
    # at every (p, d) some witness has a coordinate the oracle reads in m_d
    assert printed_at_d == set(LEVELS)
    assert len(level_transcripts) == 12 + PER_LEVEL * len(LEVELS)


def bumped_coordinate(record):
    """The transcript with its first level-d witness coefficient's coordinate 0 raised by one.

    None when no witness coefficient prints at level d.  That coefficient has
    a nonzero coordinate above 0, so the forgery is never -nu, which would be
    a witness too.
    """
    out = forged(record)
    for half in "fg":
        for term in out["witness"][half]:
            if "@" in term[1]:
                coords, level = term[1][1:].split("]@")
                first, *rest = coords.split(",")
                term[1] = "[" + ",".join([str(int(first) + 1), *rest]) + "]@" + level
                return out
    return None


def test_forged_level_d_transcripts_fail_the_oracle(level_transcripts):
    forgeries = bumped = 0
    for i, p, d, text, record in level_transcripts:
        if i >= FORGED:
            continue
        eps, theta = record["epsilon"], record["theta"]
        wrong_eps = forged(record, epsilon=-eps, label=f"eps={-eps:+d} theta={theta}")
        wrong_theta = forged(record, theta=1 - theta, label=f"eps={eps:+d} theta={1 - theta}")
        for wrong in (wrong_eps, wrong_theta):
            assert {"label", "conjugation"} <= set(oracle_failures(p, d, text, wrong)), (p, d, i)
        forgeries += 1
        wrong_nu = bumped_coordinate(record)
        if wrong_nu is not None:
            assert oracle_failures(p, d, text, wrong_nu), (p, d, i)
            bumped += 1
    assert forgeries == FORGED * (1 + len(LEVELS))
    assert bumped > forgeries // 2


def test_reading_in_another_irreducible_fails_the_oracle(level_transcripts):
    # the same coordinates read modulo the scan's second irreducible of
    # degree d.  The class of s itself can still pass: there u and nu are
    # linear in the unipotent unit's coefficients, so their identities hold
    # in any ring; the other classes multiply those coefficients together
    failed = set()
    for i, p, d, text, record in level_transcripts:
        if i < FORGED and oracle_failures(p, d, text, record, m=modulus(p, d, skip=1)):
            failed.add((p, d, i))
    assert {(p, d) for p, d, _ in failed} == set(LEVELS)
    assert len(failed) > FORGED * (1 + len(LEVELS)) // 2
