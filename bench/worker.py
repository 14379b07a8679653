"""One pass of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.  Every
operation starts with cold caches, as a CLI invocation does.  Only the
``schurbox.cli.main`` calls are timed; output checks happen after each call,
outside the timed region.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _layer_metrics(tracer, cache) -> dict:
    stats = tracer.stats
    product = stats["algebra.basis_product"]
    lookups = cache["hits"] + cache["misses"]
    metrics = {
        "cli.main.self_s": stats["cli.main"].self_s,
        "serialize.table_line.calls": stats["serialize.table_line"].calls,
        "serialize.table_line.self_s": stats["serialize.table_line"].self_s,
        "serialize.element_records.self_s": stats["serialize.element_records"].self_s,
        "algebra.basis_product.calls": product.calls,
        "algebra.basis_product.self_s": product.self_s,
        "algebra.basis_product.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "algebra.basis_product.cache_entries": cache["entries"],
        "algebra.basis_product.nonzero_ratio": product.out / product.calls if product.calls else 0.0,
        "algebra.apply_basis.calls": stats["algebra.apply_basis"].calls,
        "algebra.apply_basis.configs_out": stats["algebra.apply_basis"].out,
        "algebra.apply_basis.self_s": stats["algebra.apply_basis"].self_s,
        "algebra.multiply.calls": stats["algebra.multiply"].calls,
        "algebra.multiply.self_s": stats["algebra.multiply"].self_s,
        "graphs.pair_graph.calls": stats["graphs.pair_graph"].calls,
        "graphs.pair_graph.self_s": stats["graphs.pair_graph"].self_s,
        "graphs.canonical_pair.calls": stats["graphs.canonical_pair"].calls,
        "graphs.canonical_pair.self_s": stats["graphs.canonical_pair"].self_s,
        "combinatorics.configurations_built": tracer.configurations_built,
        "structconst.counting.self_s": stats["structconst.counting"].self_s,
        "structconst.counting.terms_out": stats["structconst.counting"].out,
        "structconst.euler.self_s": stats["structconst.euler"].self_s,
        "structconst.mendez.self_s": stats["structconst.mendez"].self_s,
        "oracle.pair_table.self_s": stats["oracle.pair_table"].self_s,
        "oracle.matmul.calls": stats["oracle.matmul"].calls,
        "oracle.matmul.self_s": stats["oracle.matmul"].self_s,
        "oracle.orbit_composition_count.calls": stats["oracle.orbit_composition_count"].calls,
        "oracle.orbit_composition_count.self_s": stats["oracle.orbit_composition_count"].self_s,
        "oracle.decompose.self_s": stats["oracle.decompose"].self_s,
    }
    for name in stats:
        if name.startswith("verify."):
            metrics[f"{name}.s"] = stats[name].total_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--scale", required=True, choices=tuple(workloads.SCALES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from schurbox import algebra, cli, oracle

    workdir = Path(args.workdir)
    pins = workloads.load_pins(args.scale)
    ops = workloads.ops(args.workload, args.scale, args.seed, workdir, args.jobs)
    workloads.write_inputs(args.workload, args.scale, workdir)
    caches = (algebra.basis_product, oracle.pair_table)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cache = {"hits": 0, "misses": 0, "entries": 0}
    results, run_s, bytes_out = [], 0.0, 0
    for op in ops:
        for cached in caches:
            cached.cache_clear()
        if op.out:
            # writing a fresh path, as a first run does: on ext4, renaming over
            # an existing file flushes the new one to disk inside the timed call
            Path(op.out).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(op.argv))
        except Exception as exc:  # a crash is a failed operation, not a failed pass
            error = f"{type(exc).__name__}: {exc}"
        run_s += time.perf_counter() - start
        if tracer is not None:
            info = algebra.basis_product.cache_info()
            cache["hits"] += info.hits
            cache["misses"] += info.misses
            cache["entries"] = max(cache["entries"], info.currsize)
        if error is None:
            error = workloads.check(op, code, out.getvalue(), pins)
        bytes_out += len(out.getvalue().encode())
        if op.out and Path(op.out).exists():
            bytes_out += Path(op.out).stat().st_size
            Path(op.out).unlink()
        results.append({"name": op.name, "ok": error is None, "error": error, "stderr": err.getvalue()[-500:]})

    report = {
        "run_s": run_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": results,
    }
    if tracer is not None:
        report["layers"] = _layer_metrics(tracer, cache)
        report["layers"]["serialize.bytes_out"] = bytes_out
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
