"""Span tracing from outside the package.

Each traced public function is replaced, in every ``schurbox`` module that
holds a reference to it, by a wrapper that records one span per call.  Spans
are aggregated as they close: per name, the call count, the total time, and
the self time (a span minus the time of its child spans).  A few wrappers
also count what the call produced.
"""

import sys
import time
from dataclasses import dataclass

# span name -> (module, attribute); methods are patched on their class
FUNCTIONS = {
    "cli.main": ("schurbox.cli", "main"),
    "algebra.basis_product": ("schurbox.algebra", "basis_product"),
    "algebra.apply_basis": ("schurbox.algebra", "apply_basis"),
    "algebra.multiply": ("schurbox.algebra", "multiply"),
    "graphs.pair_graph": ("schurbox.graphs", "pair_graph"),
    "graphs.canonical_pair": ("schurbox.graphs", "canonical_pair"),
    "structconst.counting": ("schurbox.structconst", "multiply_basis_counting"),
    "structconst.euler": ("schurbox.structconst", "multiply_basis_euler"),
    "structconst.mendez": ("schurbox.structconst", "multiply_basis_mendez"),
    "oracle.pair_table": ("schurbox.oracle", "pair_table"),
    "oracle.orbit_composition_count": ("schurbox.oracle", "orbit_composition_count"),
    "oracle.decompose": ("schurbox.oracle", "decompose"),
    "serialize.table_line": ("schurbox.serialize", "table_line"),
    "serialize.element_records": ("schurbox.serialize", "element_records"),
    "verify.orbit-bijection": ("schurbox.verify", "check_orbit_bijection"),
    "verify.commutant": ("schurbox.verify", "check_commutant"),
    "verify.engines": ("schurbox.verify", "check_engines"),
    "verify.assoc": ("schurbox.verify", "check_assoc"),
    "verify.identity": ("schurbox.verify", "check_identity"),
    "verify.t-basis": ("schurbox.verify", "check_t_basis"),
}
METHODS = {"oracle.matmul": ("schurbox.oracle", "DenseOperator", "__matmul__")}

# what a span's result adds to its output counter
OUTPUT_COUNTERS = {
    "algebra.basis_product": lambda result: 0 if result.is_zero else 1,
    "algebra.apply_basis": len,
    "structconst.counting": lambda result: len(result.items()),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    out: int = 0


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name in (*FUNCTIONS, *METHODS)}
        self.configurations_built = 0
        self._child_time = []  # one accumulator per open span

    def _wrap(self, name, fn):
        stats = self.stats[name]
        child_time = self._child_time
        count_out = OUTPUT_COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
            if count_out is not None:
                stats.out += count_out(result)
            return result

        for attr in ("cache_clear", "cache_info"):  # keep lru_cache's interface
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Patch every reference to each traced function in the loaded package.

        The patches last for the life of the process.
        """
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "schurbox"]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        for name, (module, cls, attr) in METHODS.items():
            owner = getattr(sys.modules[module], cls)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

        configuration = sys.modules["schurbox.combinatorics"].Configuration
        post_init = configuration.__post_init__

        def counting_post_init(config):
            self.configurations_built += 1
            post_init(config)

        configuration.__post_init__ = counting_post_init
