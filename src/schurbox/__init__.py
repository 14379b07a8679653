"""Exact arithmetic in the algebra of ball-configuration operators.

Configurations of d labeled balls in n boxes carry a ball-renaming action;
the operators commuting with it have a basis indexed by n x n bipartite
multigraphs with d edges.  This package computes products in that basis by
Green's product rule (the ``euler`` engine) and checks them against two
independent referees: the defining count of middle configurations
(``counting``) and a dense matrix oracle.
"""

from types import ModuleType as _ModuleType

from .algebra import (
    ENGINE_NAMES,
    AlgebraElement,
    VectorElement,
    apply,
    apply_basis,
    basis_product,
    identity_element,
    multiply,
)
from .combinatorics import (
    DEFAULT_ENUMERATION_CAP,
    Configuration,
    ConfigurationError,
    Params,
    TooLargeError,
    compositions,
    enumerate_configurations,
    enumerate_multi_indices,
    to_configuration,
    to_multi_index,
)
from .graphs import (
    ORACLE_CAP,
    BipartiteMultigraph,
    canonical_pair,
    diagonal_graph,
    enumerate_graphs,
    graph_count,
    pair_graph,
)
from .structconst import (
    coeff_by_counting,
    middle_fillings,
    multiply_basis_counting,
    multiply_basis_euler,
)
from .verify import CHECK_NAMES, CheckResult, run_checks

__version__ = "0.1.0"

# the oracle imports numpy, which nothing else here needs: load it on first access
_ORACLE_EXPORTS = ("NotInSpanError", "multiply_basis_oracle", "operator_matrix")


def __getattr__(name):
    if name in _ORACLE_EXPORTS:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the import block's public names (not the submodules it binds here), the lazy oracle names and the version
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += [*_ORACLE_EXPORTS, "__version__"]
