"""Command-line surface: dim, basis, multiply, apply, table, verify, render.

``table`` writes the rows of :func:`structconst.product_rows` through
:func:`serialize.table_blocks`.  Exit codes: 0 success, 1 input or
validation error, 2 verification failure or engine disagreement.
"""

import argparse
import os
import sys
from functools import lru_cache

from . import serialize, structconst
from .algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    check_modulus,
    engine_function,
)
from .combinatorics import Configuration, Params, _check_cap
from .graphs import basis, enumerate_graphs, graph_count, in_reach
from .render import (
    render_graph_ascii,
    render_graph_dot,
    render_product_ascii,
    render_product_dot,
)
from .verify import CHECK_NAMES, engine_outputs, run_checks


def _load_graph(path: str):
    return serialize.graph_from_record(serialize.load_json_file(path))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


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
    lines = [serialize.dumps(serialize.graph_record(g)) for g in enumerate_graphs(p)]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_multiply(args) -> int:
    check_modulus(args.mod)
    g1 = _load_graph(args.lhs)
    g2 = _load_graph(args.rhs)
    if (g1.n, g1.d) != (g2.n, g2.d):
        raise ValueError(
            f"factors live in different algebras: (n,d)=({g1.n},{g1.d}) vs ({g2.n},{g2.d})"
        )
    if args.engine == "all":
        outputs = engine_outputs(g1, g2, in_reach(Params(g1.n, g1.d)))
        product = outputs["counting"]
        if any(result != product for result in outputs.values()):
            print(f"error: engines disagree at {g1} * {g2}", file=sys.stderr)
            for name, result in outputs.items():
                print(
                    f"  {name}: {serialize.dumps(serialize.element_records(result))}",
                    file=sys.stderr,
                )
            return 2
    else:
        product = engine_function(args.engine)(g1, g2)
    if args.mod is not None:
        product = product.reduce(args.mod)
    _write_output(serialize.dumps(serialize.element_records(product)) + "\n", args.out)
    return 0


def cmd_apply(args) -> int:
    check_modulus(args.mod)
    g = _load_graph(args.graph)
    b = Configuration.from_word(args.config, n=g.n, d=g.d)
    result = apply(AlgebraElement.basis(g), VectorElement.basis(b), mod=args.mod)
    _write_output(serialize.dumps(serialize.vector_records(result)) + "\n", args.out)
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
    tmp = args.out + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(serialize.table_blocks(basis(p.n, p.d), rows, args.mod))
        os.replace(tmp, args.out)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
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
    graphs = [_load_graph(path) for path in args.files]
    if args.mode == "graph":
        if len(graphs) != 1:
            raise ValueError("graph mode takes exactly one graph file")
        renderer = render_graph_ascii if args.format == "ascii" else render_graph_dot
        text = renderer(graphs[0])
    else:
        if len(graphs) != 3:
            raise ValueError("product mode takes three graph files: lhs rhs target")
        renderer = render_product_ascii if args.format == "ascii" else render_product_dot
        text = renderer(*graphs)
    _write_output(text, args.out)
    return 0


def _add_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", "--boxes", type=int, required=True, help="number of boxes")
    parser.add_argument("-d", "--balls", type=int, required=True, help="number of balls")


def _add_out(parser: argparse.ArgumentParser, required: bool = False) -> None:
    parser.add_argument(
        "--out", required=required, help="output path (stdout when omitted)" if not required else "output path"
    )


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurbox",
        description="Exact products of ball-configuration operators via bipartite multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dim", help="basis size by enumeration and by the binomial formula")
    _add_params(dim)
    dim.set_defaults(func=cmd_dim)

    basis = sub.add_parser("basis", help="list the basis graphs, one JSON record per line")
    _add_params(basis)
    _add_out(basis)
    basis.set_defaults(func=cmd_basis)

    mul = sub.add_parser("multiply", help="product of two basis operators from graph files")
    mul.add_argument("lhs", help="left factor (graph JSON file)")
    mul.add_argument("rhs", help="right factor (graph JSON file)")
    mul.add_argument(
        "--engine", choices=ENGINE_NAMES + ("all",), default="euler",
        help="structure-constant engine, or 'all' to cross-check",
    )
    mul.add_argument("--mod", type=int, help="reduce coefficients modulo this prime")
    _add_out(mul)
    mul.set_defaults(func=cmd_multiply)

    app = sub.add_parser("apply", help="act on a configuration basis vector")
    app.add_argument("graph", help="operator (graph JSON file)")
    app.add_argument("config", help="configuration word, e.g. '|12|34|'")
    app.add_argument("--mod", type=int, help="reduce coefficients modulo this prime")
    _add_out(app)
    app.set_defaults(func=cmd_apply)

    table = sub.add_parser("table", help="tabulate every basis product to a file")
    _add_params(table)
    table.add_argument("--mod", type=int, help="reduce coefficients modulo this prime")
    table.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored: table runs in one process",
    )
    _add_out(table, required=True)
    table.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run the consistency suites")
    _add_params(ver)
    ver.add_argument(
        "--checks", default="all",
        help="comma-separated subset of: " + ", ".join(CHECK_NAMES),
    )
    ver.add_argument("--seed", type=int, default=0, help="seed for sampled suites")
    ver.add_argument(
        "--corrupt", action="store_true",
        help="self-test: corrupt one operator and require the commutant check to fail",
    )
    ver.set_defaults(func=cmd_verify)

    render = sub.add_parser("render", help="draw graphs or product fillings")
    render.add_argument("files", nargs="+", help="graph JSON file(s); product mode takes lhs rhs target")
    render.add_argument("--format", choices=("ascii", "dot"), default="ascii")
    render.add_argument("--mode", choices=("graph", "product"), default="graph")
    _add_out(render)
    render.set_defaults(func=cmd_render)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: building one costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
