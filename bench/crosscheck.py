"""Cross-check committed references by routes other than the stored output.

    python3 bench/crosscheck.py

* Closed forms written out by hand: the Virasoro bracket ``[L_lambda L]``,
  the NS mode commutator ``[G_{1/2}, G_{-1/2}] = L_0`` and the free-fermion
  product ``psi1_(-2) psi2 = :d(psi1) psi2:``.
* Quasi-symmetry of composite brackets: ``[b_lambda a]``, computed afresh,
  must equal ``-p(a,b) [a_(-lambda-T) b]`` built from the stored reference
  of ``[a_lambda b]``.
* OPE references that the OPE renderer produced equal the j-products
  ``j! [a_lambda b]_j`` of the JSON bracket of the same pair.
* Every stored sweep reports ``ok``.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import canon  # noqa: E402
import catalogue  # noqa: E402
from catalogue import ALGEBRAS, cli_argv, jproducts_of_bracket, run_cli  # noqa: E402

QUASI_SYMMETRY_SAMPLE = 40


def load(workload):
    with open(HERE / "data" / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)["entries"]


def presentation(name):
    from vacalc.frontend.parser import parse_definition
    from vacalc.lie_conformal import builtin

    if name == "superfermion":
        return parse_definition((HERE / "data" / "superfermion.vac").read_text())
    return builtin(name)


def to_scalar(poly):
    from vacalc.scalar import Scalar

    terms = {}
    for mono, coeff in poly:
        key = tuple((n, int(e)) for n, _, e in (f.partition("^") for f in mono.split("*") if f))
        terms[key] = Fraction(coeff)
    return Scalar(terms)


def to_bracket(alg, value):
    """A stored bracket value as a BracketPoly of vertex states."""
    from vacalc.poly import BracketPoly
    from vacalc.vertex_calc import NormalWord, VertexElement

    by_degree = {}
    for deg, basis, poly in value:
        words, vac = by_degree.setdefault(deg, ({}, []))
        if basis == "vac":
            vac.append(to_scalar(poly))
        else:
            atoms = [(g, int(d)) for g, _, d in (a.partition("^") for a in basis[2:].split())]
            words[NormalWord(atoms)] = to_scalar(poly)
    return BracketPoly(
        ("lambda",),
        {(deg,): VertexElement(alg, words=w, vacuum=v[0] if v else 0) for deg, (w, v) in by_degree.items()},
    )


def odd(alg_name, text):
    gens = ALGEBRAS[alg_name][1]
    return sum(gens[n][1] for n in re.findall(r"[A-Za-z][A-Za-z0-9]*", text) if n in gens) % 2


def main():
    from vacalc.frontend.render import to_json_payload
    from vacalc.poly import substitute_skew

    failures = []
    wick = load("wick-cold")

    closed = [
        ("d(L) + 2*lambda*L + 1/12*c*lambda^3*vac", wick[0]),
        ("L_0", wick[1]),
        (":d(psi1) psi2:", wick[2]),
    ]
    for text, entry in closed:
        _, _, params, pinned = ALGEBRAS[entry["algebra"]]
        if canon.parse_text(text, params, pinned) != entry["ref"]:
            failures.append(f"closed form {text!r} != reference of {entry['args']}")
    print(f"closed forms: {len(closed)} checked")

    candidates = [
        e for e in wick
        if e["kind"] == "bracket" and e["fmt"] != "ope" and e["seed_outcome"] == "ok"
        and any(a.startswith(":") for a in e["args"])
    ]
    sample = random.Random(catalogue.CATALOGUE_SEED).sample(
        candidates, min(QUASI_SYMMETRY_SAMPLE, len(candidates))
    )
    for entry in sample:
        name = entry["algebra"]
        _, _, params, pinned = ALGEBRAS[name]
        alg = presentation(name)
        a, b = entry["args"]
        sign = -(-1 if odd(name, a) and odd(name, b) else 1)
        predicted = substitute_skew(to_bracket(alg, entry["ref"])).scale(sign)
        predicted = canon.parse_json(to_json_payload(predicted, name, ""), params, pinned)
        code, text = run_cli(cli_argv(dict(entry, fmt="json", args=[b, a])))
        if code != 0 or canon.parse_json(text, params, pinned) != predicted:
            failures.append(f"quasi-symmetry fails for {name} [{a}, {b}]")
    print(f"quasi-symmetry: {len(sample)} of {len(candidates)} composite brackets checked")

    opes = [
        e for e in wick
        if (e["kind"] == "ope" or (e["kind"] == "bracket" and e["fmt"] == "ope"))
        and e["seed_outcome"] == "ok"
    ]
    for entry in opes:
        _, _, params, pinned = ALGEBRAS[entry["algebra"]]
        code, text = run_cli(cli_argv(dict(entry, kind="bracket", fmt="json")))
        if code != 0 or jproducts_of_bracket(canon.parse_json(text, params, pinned)) != entry["ref"]:
            failures.append(f"OPE of {entry['algebra']} {entry['args']} != bracket j-products")
    print(f"OPE vs bracket: {len(opes)} rendered OPEs checked")

    sweeps = load("sweep-warm")
    for entry in sweeps:
        if not entry["ref"][2]:
            failures.append(f"sweep {entry['args'][0]} on {entry['algebra']} does not report ok")
    print(f"sweeps: {len(sweeps)} references checked")

    for line in failures:
        print(f"FAIL {line}")
    print("crosscheck: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
