"""Op catalogues of the three workloads and their committed references.

Each workload draws its ops from a fixed catalogue generated here from
``CATALOGUE_SEED`` by generator ``GENERATOR_VERSION``.  Every entry carries
its reference value (see :mod:`canon`), the outcome at the commit that made
it (``"ok"``, an exception name, or ``"exit N"``) and its latency there in
milliseconds, which ``run.py`` uses to stratify the per-seed mix.

Regenerate the files under ``bench/data`` (only when the generator changes,
and then bump ``GENERATOR_VERSION``)::

    python3 bench/catalogue.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
SRC = HERE.parent / "src"

GENERATOR_VERSION = 1
CATALOGUE_SEED = 20261017
SWEEP_RANGE = 2
MAX_PAIR_WEIGHT = 12

# name -> (CLI selector, generators {name: (weight, odd)}, parameters, pinned centrals)
ALGEBRAS = {
    "virasoro": (["--builtin", "virasoro"], {"L": ("2", False)}, ["c"], {"C": "c"}),
    "neveu_schwarz": (
        ["--builtin", "neveu_schwarz"],
        {"L": ("2", False), "G": ("3/2", True)},
        ["c"],
        {"C": "c"},
    ),
    "current_sl2": (
        ["--builtin", "current_sl2"],
        {"e": ("1", False), "f": ("1", False), "h": ("1", False)},
        ["k"],
        {"K": "k"},
    ),
    "free_boson": (
        ["--builtin", "free_boson"],
        {"a1": ("1", False), "a2": ("1", False)},
        ["k"],
        {"K": "k"},
    ),
    "free_fermion": (
        ["--builtin", "free_fermion"],
        {"psi1": ("1/2", True), "psi2": ("1/2", True)},
        [],
        {"K": "1"},
    ),
    "superfermion": (
        ["--algebra", "superfermion.vac"],
        {"b1": ("1/2", False), "b2": ("1/2", False), "psi1": ("1/2", True), "psi2": ("1/2", True)},
        [],
        {"K": "1"},
    ),
}
BUILTINS = [name for name in ALGEBRAS if name != "superfermion"]
CHECKS = ["skew", "jacobi", "mode-jacobi", "borcherds"]


def cli_argv(entry) -> list:
    """Full argv of a CLI catalogue entry; the ``.vac`` path is resolved here."""
    selector = list(ALGEBRAS[entry["algebra"]][0])
    if selector[0] == "--algebra":
        selector[1] = str(DATA / selector[1])
    fmt = [] if entry["fmt"] == "text" else ["--format", entry["fmt"]]
    extra = ["--range", str(SWEEP_RANGE)] if entry["kind"] == "check" else []
    return selector + extra + fmt + [entry["kind"]] + list(entry["args"])


def run_cli(argv):
    """Call ``vacalc.frontend.cli.main`` in-process: (exit code or exception
    name, stdout)."""
    from vacalc.frontend import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an outcome to record, not to stop on
            return type(exc).__name__, out.getvalue()
    return code, out.getvalue()


def outcome_label(outcome):
    """The recorded form of a failed outcome: an exception name or ``exit N``."""
    return outcome if isinstance(outcome, str) else f"exit {outcome}"


# ---------------------------------------------------------------------------
# wick-cold: cold CLI queries on composite words
# ---------------------------------------------------------------------------


def _atom_text(g, d):
    return g if d == 0 else (f"d({g})" if d == 1 else f"d^{d}({g})")


def _word(rng, gens):
    atoms = [(rng.choice(sorted(gens)), rng.choice([0, 0, 1, 2])) for _ in range(rng.randint(1, 3))]
    weight = sum(Fraction(gens[g][0]) + d for g, d in atoms)
    texts = [_atom_text(g, d) for g, d in atoms]
    return (texts[0] if len(texts) == 1 else ":" + " ".join(texts) + ":"), weight


def _mode_ref(rng, gen, weight):
    offset = (-Fraction(weight)) % 1
    index = rng.randint(-3, 2) + offset
    return f"{gen}_{{{index}}}"


def wick_entries(rng, count):
    # Closed forms that crosscheck.py verifies by hand come first.
    entries = [
        {"algebra": "virasoro", "kind": "bracket", "fmt": "text", "args": ["L", "L"]},
        {"algebra": "neveu_schwarz", "kind": "modes", "fmt": "text", "args": ["G_{1/2}", "G_{-1/2}"]},
        {"algebra": "free_fermion", "kind": "nproduct", "fmt": "text", "args": ["psi1", "-2", "psi2"]},
    ]
    names = sorted(ALGEBRAS)
    while len(entries) < count:
        alg = rng.choice(names)
        gens = ALGEBRAS[alg][1]
        roll = rng.random()
        if roll < 0.04:
            word, _ = _word(rng, gens)
            entries.append({"algebra": alg, "kind": "weight", "fmt": rng.choice(["text", "json"]), "args": [word]})
            continue
        if roll < 0.07:
            alg = rng.choice(["virasoro", "neveu_schwarz", "free_fermion"])
            gen = rng.choice(sorted(ALGEBRAS[alg][1]))
            entries.append({"algebra": alg, "kind": "primary", "fmt": rng.choice(["text", "json"]), "args": [gen]})
            continue
        if roll < 0.10:
            a, b = rng.choice(sorted(gens)), rng.choice(sorted(gens))
            args = [_mode_ref(rng, a, gens[a][0]), _mode_ref(rng, b, gens[b][0])]
            entries.append({"algebra": alg, "kind": "modes", "fmt": rng.choice(["text", "json"]), "args": args})
            continue
        (x, wx), (y, wy) = _word(rng, gens), _word(rng, gens)
        if wx + wy > MAX_PAIR_WEIGHT:
            continue
        roll = rng.random()
        if roll < 0.4:
            kind, fmt, args = "bracket", rng.choice(["text", "json", "ope"]), [x, y]
        elif roll < 0.7:
            kind, fmt, args = "ope", rng.choice(["text", "json", "ope"]), [x, y]
        else:
            kind, fmt, args = "nproduct", rng.choice(["text", "json"]), [x, str(rng.randint(-3, 3)), y]
        entries.append({"algebra": alg, "kind": kind, "fmt": fmt, "args": args})
    return entries


def jproducts_of_bracket(bracket_key):
    """OPE value ``a_(j) b = j! [a_lambda b]_j`` from a bracket value."""
    out = []
    for deg, basis, poly in bracket_key:
        scale = math.factorial(deg)
        out.append([deg, basis, sorted([m, str(Fraction(c) * scale)] for m, c in poly)])
    return out


def cli_reference(entry):
    """(reference value, seed outcome, latency ms) of one CLI entry."""
    from canon import cli_value, parse_json

    _, _, params, pinned = ALGEBRAS[entry["algebra"]]
    argv = cli_argv(entry)
    start = time.perf_counter()
    outcome, stdout = run_cli(argv)
    ms = (time.perf_counter() - start) * 1e3
    if outcome == 0:
        return cli_value(entry["kind"], entry["fmt"], stdout, params, pinned), "ok", ms
    label = outcome_label(outcome)
    if entry["kind"] in ("ope", "bracket"):
        # The OPE renderer fails on composite operands; its correct value is
        # the j-products of the bracket, taken from the JSON bracket instead.
        alt = dict(entry, kind="bracket", fmt="json")
        code, text = run_cli(cli_argv(alt))
        if code != 0:
            raise RuntimeError(f"no alternate route for {argv}: {code}")
        return jproducts_of_bracket(parse_json(text, params, pinned)), label, ms
    raise RuntimeError(f"op fails with no alternate route: {argv} -> {label}")


# ---------------------------------------------------------------------------
# sweep-warm: axiom sweeps at a fixed range
# ---------------------------------------------------------------------------


def sweep_entries():
    return [
        {"algebra": alg, "kind": "check", "fmt": fmt, "args": [check]}
        for alg in BUILTINS
        for check in CHECKS
        for fmt in ("text", "json")
    ]


# ---------------------------------------------------------------------------
# formal-symbolic: formal_dist calculus and symbolic mode commutators
# ---------------------------------------------------------------------------

_MONOS = [[], [["c", 1]], [["k", 1]], [["c", 1], ["k", 1]], [["c", 2]], [["k", 2]]]
_INDEX_MONOS = [[], [["c", 1]], [["m", 1], ["n", 1]], [["m", 2]]]


def _rational(rng):
    return str(Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 4)))


def _poly(rng, monos, terms):
    picked = rng.sample(range(len(monos)), terms)
    return [[monos[i], _rational(rng)] for i in sorted(picked)]


def _laurent(rng):
    exps = rng.sample(range(-4, 5), rng.randint(1, 4))
    return [[e, _poly(rng, _MONOS, rng.randint(1, 3))] for e in sorted(exps)]


def _local(rng):
    ladder = rng.sample(range(0, 7), rng.randint(1, 4))
    return {"singular": [[j, _laurent(rng)] for j in sorted(ladder)], "regular": []}


def formal_entries(rng, count):
    entries = []
    while len(entries) < count:
        roll = rng.random()
        if roll < 0.15:
            spec = {
                "k": rng.randint(-8, -1),
                "orientation": rng.choice(["z_dominant", "w_dominant"]),
                "order": rng.randint(60, 160),
            }
            entries.append({"kind": "expand_power", "spec": spec})
        elif roll < 0.35:
            op = rng.choice(["derive_z", "derive_w", "swap_zw", "mul_z", "mul_w", "residue_z"])
            spec = {"dist": _local(rng), "op": op, "f": _laurent(rng)}
            entries.append({"kind": "ladder", "spec": spec})
        elif roll < 0.65:
            op = rng.choice(["decompose", "locality_test", "fourier_two", "mul_zw_power"])
            spec = {"dist": _local(rng), "op": op, "m": rng.randint(0, 6)}
            entries.append({"kind": "local", "spec": spec})
        else:
            alg = rng.choice(BUILTINS)
            gens = sorted(ALGEBRAS[alg][1])
            spec = {
                "algebra": alg,
                "a": rng.choice(gens),
                "b": rng.choice(gens),
                "m": [[[["m", 1]], _rational(rng)]] + _poly(rng, _INDEX_MONOS, rng.randint(0, 2)),
                "n": [[[["n", 1]], _rational(rng)]] + _poly(rng, _INDEX_MONOS, rng.randint(0, 2)),
                "indexing": rng.choice(["shifted", "weight"]),
            }
            entries.append({"kind": "mode_commutator", "spec": spec})
    return entries


def scalar(spec):
    from vacalc.scalar import Scalar

    return Scalar({tuple((n, e) for n, e in mono): Fraction(c) for mono, c in spec})


def laurent(spec):
    from vacalc.formal_dist import OneVarLaurent

    return OneVarLaurent({e: scalar(p) for e, p in spec})


def distribution(spec):
    from vacalc.formal_dist import TwoVarDistribution

    return TwoVarDistribution(
        singular={j: laurent(c) for j, c in spec["singular"]},
        regular={(m, n): scalar(p) for m, n, p in spec["regular"]},
    )


def formal_call(entry, algebras):
    """A zero-argument callable running one formal-symbolic entry; its inputs
    are built here, before any timing starts."""
    from vacalc import formal_dist as fd
    from vacalc import mode_algebra

    spec, kind = entry["spec"], entry["kind"]
    if kind == "expand_power":
        return lambda: fd.expand_power(spec["k"], spec["orientation"], spec["order"])
    if kind == "mode_commutator":
        alg = algebras[spec["algebra"]]
        m, n = scalar(spec["m"]), scalar(spec["n"])
        return lambda: mode_algebra.mode_commutator(
            spec["a"], m, spec["b"], n, alg, spec["indexing"]
        )
    dist, op = distribution(spec["dist"]), spec["op"]
    if kind == "ladder":
        f = laurent(spec["f"])
        return {
            "derive_z": lambda: fd.derive(dist, "z"),
            "derive_w": lambda: fd.derive(dist, "w"),
            "swap_zw": lambda: fd.swap_zw(dist),
            "mul_z": lambda: fd.mul_one_var(dist, f, "z"),
            "mul_w": lambda: fd.mul_one_var(dist, f, "w"),
            "residue_z": lambda: fd.residue_z(dist),
        }[op]
    return {
        "decompose": lambda: fd.decompose(dist),
        "locality_test": lambda: fd.locality_test(dist),
        "fourier_two": lambda: fd.fourier_two(dist),
        "mul_zw_power": lambda: fd.mul_zw_power(dist, spec["m"]),
    }[op]


def formal_algebras():
    from vacalc.lie_conformal import builtin

    return {name: builtin(name) for name in BUILTINS}


# ---------------------------------------------------------------------------


def _write(name, entries):
    path = DATA / f"{name}.json"
    head = {"catalogue_seed": CATALOGUE_SEED, "generator_version": GENERATOR_VERSION, "workload": name}
    with open(path, "w", encoding="utf-8") as handle:
        # One entry per line keeps diffs of a regenerated catalogue readable.
        handle.write(json.dumps(head)[:-1] + ', "entries": [\n')
        handle.write(",\n".join(json.dumps(e, sort_keys=True) for e in entries))
        handle.write("\n]}\n")
    outcomes = {}
    for e in entries:
        outcomes[e["seed_outcome"]] = outcomes.get(e["seed_outcome"], 0) + 1
    total = sum(e["seed_ms"] for e in entries) / 1e3
    print(f"{name}: {len(entries)} entries, {total:.1f} s, outcomes {outcomes}", file=sys.stderr)


def main():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from canon import library_value

    run_cli(["--builtin", "virasoro", "bracket", "L", "L"])  # warm imports

    rng = random.Random(CATALOGUE_SEED)
    wick = wick_entries(rng, 480)
    for i, entry in enumerate(wick):
        entry["id"] = i
        entry["ref"], entry["seed_outcome"], entry["seed_ms"] = cli_reference(entry)
    _write("wick-cold", wick)

    sweep = sweep_entries()
    for i, entry in enumerate(sweep):
        entry["id"] = i
        entry["ref"], entry["seed_outcome"], entry["seed_ms"] = cli_reference(entry)
    _write("sweep-warm", sweep)

    algebras = formal_algebras()
    formal = formal_entries(rng, 320)
    for i, entry in enumerate(formal):
        entry["id"] = i
        call = formal_call(entry, algebras)
        start = time.perf_counter()
        result = call()
        entry["seed_ms"] = (time.perf_counter() - start) * 1e3
        entry["ref"], entry["seed_outcome"] = library_value(result), "ok"
    _write("formal-symbolic", formal)


if __name__ == "__main__":
    main()
