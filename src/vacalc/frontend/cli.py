"""Command line interface.

Usage::

    vacalc [options] QUERY...

    vacalc --builtin virasoro bracket L L
    vacalc --builtin virasoro --format ope ope L L
    vacalc --builtin neveu_schwarz modes 'G_{1/2}' 'G_{-1/2}'
    vacalc --algebra my.vac check jacobi
    vacalc --builtin free_fermion nproduct psi1 -2 psi2

Options may appear anywhere; the first non-option token starts the query.
Exit codes: 0 success, 1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import sys

from ..lie_conformal import BUILTIN_NAMES, VacalcError, builtin
from .parser import ParseError, parse_definition
from .query import parse_query, run_query

_VALUE_OPTIONS = {
    "--algebra": "algebra",
    "--builtin": "builtin",
    "--format": "format",
    "--range": "range",
    "--max-lambda-degree": "max_lambda_degree",
}

USAGE = (
    "usage: vacalc [--algebra FILE | --builtin NAME] [--format text|latex|json|ope]\n"
    "              [--range N] [--max-lambda-degree N] QUERY...\n"
    "queries: bracket X Y | nproduct X N Y | ope X Y | modes A_m B_n |\n"
    "         check skew|jacobi|borcherds|mode-jacobi | weight X | primary A\n"
    f"builtins: {', '.join(BUILTIN_NAMES)}"
)


def _split_args(argv):
    options = {}
    query = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            options["help"] = True
            i += 1
            continue
        if arg in _VALUE_OPTIONS:
            if i + 1 >= len(argv):
                raise ParseError(f"option {arg} needs a value")
            options[_VALUE_OPTIONS[arg]] = argv[i + 1]
            i += 2
            continue
        if arg.startswith("--") and "=" in arg:
            key, _, value = arg.partition("=")
            if key in _VALUE_OPTIONS:
                options[_VALUE_OPTIONS[key]] = value
                i += 1
                continue
        if arg.startswith("--"):
            raise ParseError(f"unknown option {arg}")
        query.append(arg)
        i += 1
    return options, query


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        options, query_args = _split_args(argv)
    except ParseError as exc:
        print(f"vacalc: {exc}", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 2
    if options.get("help") or not query_args:
        stream = sys.stdout if options.get("help") else sys.stderr
        print(USAGE, file=stream)
        return 0 if options.get("help") else 2

    fmt = options.get("format", "text")
    if fmt not in ("text", "latex", "json", "ope"):
        print(f"vacalc: unknown format {fmt!r}", file=sys.stderr)
        return 2
    try:
        index_range = int(options.get("range", 2))
        max_degree = options.get("max_lambda_degree")
        max_degree = int(max_degree) if max_degree is not None else None
    except ValueError:
        print("vacalc: --range and --max-lambda-degree take integers", file=sys.stderr)
        return 2
    bounds = (("--range", index_range, 1), ("--max-lambda-degree", max_degree, 0))
    for option, value, least in bounds:
        if value is not None and value < least:
            print(f"vacalc: {option} must be at least {least}, got {value}", file=sys.stderr)
            return 2

    try:
        if "algebra" in options and "builtin" in options:
            raise VacalcError("pass either --algebra or --builtin, not both")
        if "algebra" in options:
            path = options["algebra"]
            try:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            except UnicodeDecodeError as exc:
                raise VacalcError(f"{path}: not UTF-8 text (byte {exc.start})") from None
            alg = parse_definition(text)
        elif "builtin" in options:
            alg = builtin(options["builtin"])
        else:
            raise VacalcError("an algebra is required (--algebra FILE or --builtin NAME)")
        query = parse_query(query_args)
        output, code = run_query(
            query, alg, fmt, index_range=index_range, max_lambda_degree=max_degree
        )
    except (OSError, VacalcError) as exc:
        print(f"vacalc: {exc}", file=sys.stderr)
        return 2
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
