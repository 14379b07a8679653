"""Command-line surface: dim, basis, multiply, apply, table, verify, render.

``table`` writes the rows of :func:`structconst.product_rows` through
:func:`serialize.table_blocks`, and ``multiply`` an engine's raw counts
through :func:`serialize.counts_json`.  :func:`main` reads a well-formed
command line straight off :data:`COMMANDS` (:func:`_quick_args`) and builds
no parser; anything else (help, usage errors and the forms the quick path
declines) goes to the full parser of :func:`build_parser`.  Exit codes: 0
success, 1 input or validation error, 2 verification failure or engine
disagreement.
"""

import argparse
import os
import sys

from . import serialize, structconst
from .algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    check_modulus,
    engine_function,
)
from .combinatorics import Configuration, Params, _check_cap, compositions
from .graphs import basis, check_graph_caps, enumerate_graphs, graph_count
from .verify import CHECK_NAMES, engine_folds, run_checks


def _load_graph(path: str):
    return serialize.graph_from_record(serialize.load_json_file(path))


def _write_output(chunks, out: str | None) -> None:
    """Write the strings ``chunks`` to stdout, or to ``<out>.tmp`` renamed over ``out`` once all are written.

    On any exception the ``.tmp`` is removed, so ``out`` is whole or untouched."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    tmp = out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def cmd_dim(args) -> int:
    p = Params(args.boxes, args.balls)
    enumerated = len(enumerate_graphs(p))
    binomial = graph_count(p)
    print(serialize.dumps({"binomial": binomial, "d": p.d, "enumerated": enumerated, "n": p.n}))
    if enumerated != binomial:
        print("error: enumeration disagrees with the binomial formula", file=sys.stderr)
        return 2
    return 0


def cmd_basis(args) -> int:
    p = Params(args.boxes, args.balls)
    check_graph_caps(p)
    line = serialize._graph_template(p.n, p.d) + "\n"
    _write_output((line % flat for flat in compositions(p.d, p.n * p.n)), args.out)
    return 0


def cmd_multiply(args) -> int:
    check_modulus(args.mod)
    g1 = _load_graph(args.lhs)
    g2 = _load_graph(args.rhs)
    if (g1.n, g1.d) != (g2.n, g2.d):
        raise ValueError(f"factors live in different algebras: (n,d)=({g1.n},{g1.d}) vs ({g2.n},{g2.d})")
    folds = engine_folds(Params(g1.n, g1.d)) if args.engine == "all" else {args.engine: engine_function(args.engine)}
    outputs = {name: fold(g1, g2) for name, fold in folds.items()}
    counts = next(iter(outputs.values()))
    if any(result != counts for result in outputs.values()):
        print(f"error: engines disagree at {g1} * {g2}", file=sys.stderr)
        for name, result in outputs.items():
            print(f"  {name}: {serialize.counts_json(result, g1.n, g1.d)}", file=sys.stderr)
        return 2
    _write_output([serialize.counts_json(counts, g1.n, g1.d, args.mod), "\n"], args.out)
    return 0


def cmd_apply(args) -> int:
    g = _load_graph(args.graph)
    b = Configuration.from_word(args.config, n=g.n, d=g.d)
    result = apply(AlgebraElement.basis(g), VectorElement.basis(b))
    _write_output([serialize.dumps(serialize.vector_records(result)), "\n"], args.out)
    return 0


def cmd_table(args) -> int:
    """Write every basis product, the nonzero ones from :func:`structconst.product_rows`; ``--jobs`` is ignored.

    Each row, {right factor: (term indices, coefficients)}, is written as it
    is made by :func:`serialize.table_blocks`.  ``--mod`` reduces each
    coefficient once, after the walk's relabelling, with which it commutes.
    """
    check_modulus(args.mod)
    p = Params(args.boxes, args.balls)
    _check_cap(graph_count(p) ** 2, None, f"the product table at n={p.n}, d={p.d}")
    rows = structconst.product_rows(p.n, p.d)
    _write_output(serialize.table_blocks(basis(p.n, p.d), rows, args.mod), args.out)
    return 0


def cmd_verify(args) -> int:
    p = Params(args.boxes, args.balls)
    names = None
    if args.checks != "all":
        names = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    results = run_checks(p, names, seed=args.seed, corrupt=args.corrupt)
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    summary = {
        "checks": {result.name: result.passed for result in results},
        "d": p.d,
        "n": p.n,
        "passed": all(result.passed for result in results),
    }
    print(serialize.dumps(summary))
    failures = [result for result in results if not result.passed]
    if failures:
        first = failures[0]
        if first.counterexample:
            print(f"counterexample ({first.name}): {first.counterexample}", file=sys.stderr)
        return 2
    return 0


def cmd_render(args) -> int:
    from . import render  # the only command that draws loads the drawing code

    graphs = [_load_graph(path) for path in args.files]
    if args.mode == "graph":
        if len(graphs) != 1:
            raise ValueError("graph mode takes exactly one graph file")
        renderer = render.render_graph_ascii if args.format == "ascii" else render.render_graph_dot
        text = renderer(graphs[0])
    else:
        if len(graphs) != 3:
            raise ValueError("product mode takes three graph files: lhs rhs target")
        renderer = render.render_product_ascii if args.format == "ascii" else render.render_product_dot
        text = renderer(*graphs)
    _write_output([text], args.out)
    return 0


# add_argument's (flags, options) for the arguments that several subcommands take
_PARAMS = (
    (("-n", "--boxes"), dict(type=int, required=True, help="number of boxes")),
    (("-d", "--balls"), dict(type=int, required=True, help="number of balls")),
)
_MOD = (("--mod",), dict(type=int, help="reduce coefficients modulo this prime"))
_OUT = (("--out",), dict(help="output path (stdout when omitted)"))

# the subcommands in help order: name -> (help, arguments as add_argument's (flags, options), handler)
COMMANDS = {
    "dim": ("basis size by enumeration and by the binomial formula", _PARAMS, cmd_dim),
    "basis": ("list the basis graphs, one JSON record per line", (*_PARAMS, _OUT), cmd_basis),
    "multiply": ("product of two basis operators from graph files", (
        (("lhs",), dict(help="left factor (graph JSON file)")),
        (("rhs",), dict(help="right factor (graph JSON file)")),
        (("--engine",), dict(choices=ENGINE_NAMES + ("all",), default="euler",
                             help="structure-constant engine, or 'all' to cross-check")),
        _MOD,
        _OUT,
    ), cmd_multiply),
    "apply": ("act on a configuration basis vector", (
        (("graph",), dict(help="operator (graph JSON file)")),
        (("config",), dict(help="configuration word, e.g. '|12|34|'")),
        _OUT,
    ), cmd_apply),
    "table": ("tabulate every basis product to a file", (
        *_PARAMS,
        _MOD,
        (("--jobs",), dict(type=int, default=1, help="accepted and ignored: table runs in one process")),
        (("--out",), dict(required=True, help="output path")),
    ), cmd_table),
    "verify": ("run the consistency suites", (
        *_PARAMS,
        (("--checks",), dict(default="all", help="comma-separated subset of: " + ", ".join(CHECK_NAMES))),
        (("--seed",), dict(type=int, default=0, help="seed for sampled suites")),
        (("--corrupt",), dict(action="store_true",
                              help="self-test: corrupt one operator and require the commutant check to fail")),
    ), cmd_verify),
    "render": ("draw graphs or product fillings", (
        (("files",), dict(nargs="+", help="graph JSON file(s); product mode takes lhs rhs target")),
        (("--format",), dict(choices=("ascii", "dot"), default="ascii")),
        (("--mode",), dict(choices=("graph", "product"), default="graph")),
        _OUT,
    ), cmd_render),
}


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = _Parser(
        prog="schurbox",
        description="Exact products of ball-configuration operators via bipartite multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            subparser.add_argument(*flags, **options)
        subparser.set_defaults(func=handler)
    return parser


def _converted(options: dict, token: str):
    """``token`` as the argument of ``options`` holds it; ValueError where argparse would not take it as is."""
    value = options.get("type", str)(token)
    if token.startswith("-") or value not in options.get("choices", (value,)):
        raise ValueError(token)
    return value


def _quick_args(argv: list[str]) -> argparse.Namespace | None:
    """What ``build_parser().parse_args(argv)`` returns, read off :data:`COMMANDS` without building a parser.

    Only for a command followed by exact flags, the value after each flag
    that takes one, and one contiguous run of positionals.  Anything else
    (help, usage errors, abbreviations, ``--x=v``, ``-n3``, ``--``, a value
    starting with ``-``) gets None and goes to argparse, so argparse alone
    writes help and error bytes.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, handler = COMMANDS[argv[0]]
    values, flags, positionals, run, start = {"command": argv[0], "func": handler}, {}, [], [], 0
    for names, options in arguments:
        if not names[0].startswith("-"):
            positionals.append((names[0], options))
            continue
        dest = next((name for name in names if name.startswith("--")), names[0]).lstrip("-").replace("-", "_")
        flags.update(dict.fromkeys(names, (dest, options)))
        values[dest] = options.get("default", False if options.get("action") == "store_true" else None)
    required = {dest for dest, options in flags.values() if options.get("required")}
    tokens = iter(enumerate(argv[1:]))
    try:
        for i, token in tokens:
            if token in flags:
                dest, options = flags[token]
                required.discard(dest)
                flag = options.get("action") == "store_true"
                values[dest] = True if flag else _converted(options, next(tokens)[1])
            elif token.startswith("-") or (run and start + len(run) != i):
                return None
            else:
                start = i - len(run)
                run.append(token)
        extra, wide = len(run) - len(positionals), [options.get("nargs") == "+" for _, options in positionals]
        if required or extra < 0 or (extra and not any(wide)) or sum(wide) > 1:
            return None
        for (name, options), many in zip(positionals, wide):
            taken, run = run[: 1 + extra * many], run[1 + extra * many :]
            values[name] = [_converted(options, token) for token in taken] if many else _converted(options, *taken)
    except (StopIteration, TypeError, ValueError):
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _quick_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
