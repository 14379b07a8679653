"""One case of the per-engine dense sweep: an engine squaring one graph.

Run by ``run.py`` in its own process, under an address-space cap, with a
deadline enforced by a timer signal.  Prints one JSON object with the
status (``ok``, ``timeout`` or ``oom``), the engine's seconds, and on
success the sha256 of the product's element JSON as ``multiply`` prints it.
"""

import argparse
import json
import resource
import signal
import sys
import time


class Deadline(Exception):
    pass


def _expire(signum, frame):
    raise Deadline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", required=True)
    parser.add_argument("--matrix", required=True, help="JSON list of rows")
    parser.add_argument("--deadline", type=float, required=True, help="seconds")
    parser.add_argument("--cap-mb", type=int, required=True, help="RLIMIT_AS in MiB")
    args = parser.parse_args(argv)

    cap = args.cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    import hashlib

    from schurbox import serialize, structconst
    from schurbox.graphs import BipartiteMultigraph

    g = BipartiteMultigraph(tuple(tuple(row) for row in json.loads(args.matrix)))
    engine = getattr(structconst, f"multiply_basis_{args.engine}")
    product, status = None, "ok"
    signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, args.deadline)
    try:
        product = engine(g, g)
    except Deadline:
        status = "timeout"
    except MemoryError:
        status = "oom"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    report = {"status": status, "seconds": seconds}
    if product is not None:
        text = serialize.dumps(serialize.element_records(product)) + "\n"
        report["digest"] = hashlib.sha256(text.encode()).hexdigest()
        report["terms"] = len(product.items())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
