"""Print a sha256 over the outputs of a fixed seeded corpus, and the number of records.

    python tools/dump_outputs.py src

The first line covers the classification corpus below, the second the tower
maps.

The argument is the `src` directory of a checkout, and the package is
imported from there, so two checkouts print the same digest exactly when
every record is byte-identical.  Each record is one JSON line:

* an involution: its string, `transcript(u, classify(u))`, `to_json()`, and
  the repr and `.level` of every stored coefficient of the witness halves and
  of `details.g1` and `g2`; a refusal by its type and message instead;
* a raw product: the repr and `.level` of every stored coefficient of
  Laurent and algebra products, negation, star, shift, sums, differences
  and scaling.

The corpus: F_3, F_5 and F_7 (tower bound 12) at levels 1-4, with
coefficients at that level, at level 1 and at another level up to 4, and
zeros stored at any of those levels; above level 1 every second involution
is conjugated by a unipotent unit whose coefficients lie at that level.  Then
seeded involutions over F_101 and the rationals at degree bounds 3 and 6 with
one or two simple units, and raw products over both.

The tower maps: seeded elements x over F_3, F_5 and F_7 at levels 1-4 (tower
bound 12) and over F_101 and F_1048573 at levels 1-2 (bound 8), each with
`canonical`, `frobenius`, `embed` into every level it divides, `inv` and `**`,
the canonical form of a lower-level element embedded at that level, and
`field.roots(coeffs)` of seeded coefficient lists (a zero constant term
included, a refusal by its type and message); then each field's `_emb`
matrices.
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

TOWER_BOUND = 12
PER_LEVEL = 150  # involutions per small field and level
PRODUCTS = 100  # raw product records per field and level
SEEDED = 150  # involutions per field, degree bound and unit count
MAPS = 40  # tower-map records per field and level


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory of the checkout to import dihedral from")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    for corpus in (records(), tower_map_records()):
        digest, count = hashlib.sha256(), 0
        for record in corpus:
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            count += 1
        print(digest.hexdigest(), count)


def stored(poly):
    """[repr, level] of every stored coefficient, and the valuation."""
    return [poly.val, [[repr(c), c.level] for c in poly.coeffs]]


def stored_element(x):
    return [stored(x.f), stored(x.g)]


def refusal(exc):
    return {"refused": type(exc).__name__, "message": str(exc)}


def involution_record(u):
    from dihedral import DihedralError, LevelOverflow, classify, transcript

    out = {"input": str(u)}
    try:
        result = classify(u)
    except DihedralError as exc:
        return dict(out, **refusal(exc))
    out.update(
        transcript=transcript(u, result),
        to_json=result.to_json(),
        witness=stored_element(result.witness),
    )
    try:
        d = result.details
    except LevelOverflow as exc:
        out["details"] = refusal(exc)
    else:
        out["details"] = None if d is None else [stored(d.g1), stored(d.g2)]
    return out


def product_record(field, x, y, c):
    """Laurent and algebra arithmetic on x = (f1, g1), y = (f2, g2) and a scalar c."""
    from dihedral import AlgebraElement

    (f1, g1), (f2, g2) = x, y
    a, b = AlgebraElement(f1, g1), AlgebraElement(f2, g2)
    laurent = [f1 * f2, g1 * f2, f2 * g1, f1 * f1.star(), -f1, f1.star(), f1.shift(3), f1 + g2, f1 - g2, f1.scale(c)]
    algebra = [a * b, b * a, a * a, -a, a + b, a - b, a.scale(c)]
    return {"laurent": [stored(p) for p in laurent], "algebra": [stored_element(p) for p in algebra]}


def mixed_poly(field, rng, level, n):
    """A Laurent polynomial with nonzero ends at `level` and mixed-level interior coefficients."""
    from dihedral import LaurentPoly

    def nonzero(k):
        while True:
            c = field.random_element(rng, k)
            if c:
                return c

    coeffs = [nonzero(level) for _ in range(n)]
    for i in range(1, n - 1):
        k = rng.randint(1, 4)
        roll = rng.random()
        if roll < 0.3:
            coeffs[i] = field.element(k, (0,) * k)
        elif roll < 0.6:
            coeffs[i] = nonzero(rng.choice((1, k)))
    return LaurentPoly(field, rng.randint(-3, 3), coeffs)


def tower_records(p, level):
    from dihedral import (
        AlgebraElement,
        CanonicalInvolution,
        FieldSpec,
        conjugate,
        make_field,
        random_involution,
        to_idempotent,
        unipotent_unit,
    )

    field = make_field(FieldSpec.prime_closure(p, TOWER_BOUND))
    rng = random.Random(1000 * p + level)
    idempotents = [to_idempotent(-AlgebraElement.s(field)), to_idempotent(-AlgebraElement.a(field))]
    for i in range(PER_LEVEL):
        if level > 1 and i % 2:
            label = rng.choice(CanonicalInvolution.all_six())
            x = AlgebraElement(mixed_poly(field, rng, level, rng.randint(1, 3)), mixed_poly(field, rng, level, rng.randint(1, 3)))
            u = conjugate(unipotent_unit(rng.choice(idempotents), x), label.element(field))
        else:
            u, _ = random_involution(field, rng, degree_bound=rng.choice((2, 3)), num_factors=rng.randint(1, 2))
        yield involution_record(u)
    for _ in range(PRODUCTS):
        polys = [mixed_poly(field, rng, level, rng.randint(1, 5)) for _ in range(4)]
        c = field.random_element(rng, rng.randint(1, level))
        yield product_record(field, polys[:2], polys[2:], c)


def seeded_records(flag_p):
    from dihedral import FieldSpec, make_field, random_element, random_involution

    spec = FieldSpec.rationals() if flag_p is None else FieldSpec.prime_closure(flag_p)
    field = make_field(spec)
    rng = random.Random(flag_p or 0)
    for bound in (3, 6):
        for num_factors in (1, 2):
            for _ in range(SEEDED):
                u, _ = random_involution(field, rng, degree_bound=bound, num_factors=num_factors)
                yield involution_record(u)
    for _ in range(PRODUCTS):
        x, y = random_element(field, rng, 4), random_element(field, rng, 4)
        yield product_record(field, (x.f, x.g), (y.f, y.g), field.random_element(rng))


def records():
    for p in (3, 5, 7):
        for level in range(1, 5):
            yield from tower_records(p, level)
    for flag_p in (101, None):
        yield from seeded_records(flag_p)


def element(x):
    return [repr(x), x.level]


def map_record(field, rng, level):
    """Maps of one seeded nonzero element x at `level`, and the roots of one seeded polynomial there."""
    from dihedral import DihedralError

    x = field.random_element(rng, level)
    while not x:
        x = field.random_element(rng, level)
    sub = field.random_element(rng, rng.choice([e for e in range(1, level + 1) if level % e == 0]))
    n = rng.randint(1, 4)
    coeffs = [field.random_element(rng, rng.randint(1, level)) for _ in range(n)] + [x]
    if rng.random() < 0.3:
        coeffs[0] = field.zero
    out = {
        "x": element(x),
        "canonical": element(field.canonical(x)),
        "sub_canonical": element(field.canonical(field.embed(sub, level))),
        "frobenius": element(field.frobenius(x)),
        "embed": [element(field.embed(x, k * level)) for k in range(2, field.max_level // level + 1)],
        "inv": element(x.inv()),
        "pow": [element(x**n) for n in (0, 1, 2, rng.randint(3, 10**6))],
        "coeffs": [element(c) for c in coeffs],
    }
    try:
        out["roots"] = [[element(r), m] for r, m in field.roots(coeffs)]
    except DihedralError as exc:
        out["roots"] = refusal(exc)
    return out


def tower_map_records():
    from dihedral import FieldSpec, make_field

    for p, levels, bound in ((3, 4, 12), (5, 4, 12), (7, 4, 12), (101, 2, 8), (1048573, 2, 8)):
        field = make_field(FieldSpec.prime_closure(p, bound))
        rng = random.Random(p)
        for level in range(1, levels + 1):
            for _ in range(MAPS):
                yield map_record(field, rng, level)
        yield {"p": p, "emb": [[list(key), field._emb[key].tolist()] for key in sorted(field._emb)]}


if __name__ == "__main__":
    main()
