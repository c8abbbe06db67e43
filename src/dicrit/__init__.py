"""Exact combinatorial toolkit for 4-dicritical digraphs.

Core objects: immutable :class:`~dicrit.digraph.Digraph` values, exact
dicolouring and dicriticality checking, the 4-Ore composition machinery,
maximum digon/bidirected-triangle packings, the exact-rational potential
function with its parameter audit, the discharging engine, and the sparse
dicritical constructions.
"""

from .budget import Budget, BudgetExceeded
from .colouring import (
    Colouring,
    CriticalityReport,
    check_dicolouring,
    dichromatic_number,
    is_k_dicolourable,
    is_k_dicritical,
)
from .digraph import (
    Digraph,
    DigraphError,
    ParseError,
    bidirected_complete,
    bidirected_cycle,
    bidirected_from_edges,
    boundary,
    directed_cycle,
    induced,
    parse,
    serialize,
)
from .packing import Packing, max_packing, packing_value
from .potential import (
    PotentialParams,
    REFERENCE_PARAMS,
    audit_params,
    check_4ore_arc_identity,
    check_oriented_bound,
    potential,
    surface_vertex_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
