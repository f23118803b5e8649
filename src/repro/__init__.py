"""repro — shortest path counting on road networks.

A complete reproduction of *"Accelerating Shortest Path Counting on Road
Networks"* (ICDE 2025): the CTL-Index and CTLS-Index, the TL-Index
baseline they improve on, and every substrate they stand on (balanced
vertex cuts via max-flow, tree decomposition, count-preserving
SPC-Graphs, hub labels).

Quickstart::

    from repro import CTLSIndex, road_network

    graph = road_network(2000, seed=7)
    index = CTLSIndex.build(graph)
    distance, count = index.query(0, 1234)

All indexes answer exact queries: ``distance`` is the shortest path
distance and ``count`` the number of distinct shortest paths.
"""

import importlib

#: Where each public name is defined.  Names are imported on first
#: access, so a process that needs only a corner of the package (the
#: ``serve --workers N`` supervisor, say) does not load the rest.
_EXPORTS = {
    "OnlineSPC": "repro.baselines",
    "TLIndex": "repro.baselines",
    "CTLIndex": "repro.core",
    "CTLSIndex": "repro.core",
    "DynamicCTL": "repro.core",
    "DynamicCTLS": "repro.core",
    "SPCIndex": "repro.core",
    "load_index": "repro.core",
    "save_index": "repro.core",
    "ReproError": "repro.exceptions",
    "Graph": "repro.graph",
    "grid_road_network": "repro.graph.generators",
    "power_grid_network": "repro.graph.generators",
    "random_geometric_network": "repro.graph.generators",
    "road_network": "repro.graph.generators",
    "read_dimacs": "repro.graph.io",
    "read_edge_list": "repro.graph.io",
    "read_json": "repro.graph.io",
    "spc_query": "repro.search",
    "INF": "repro.types",
    "QueryResult": "repro.types",
    "QueryStats": "repro.types",
}

__version__ = "1.0.0"

__all__ = [
    "CTLIndex",
    "CTLSIndex",
    "DynamicCTL",
    "DynamicCTLS",
    "Graph",
    "INF",
    "OnlineSPC",
    "QueryResult",
    "QueryStats",
    "ReproError",
    "SPCIndex",
    "TLIndex",
    "grid_road_network",
    "load_index",
    "obs",
    "power_grid_network",
    "random_geometric_network",
    "read_dimacs",
    "read_edge_list",
    "read_json",
    "road_network",
    "save_index",
    "spc_query",
    "__version__",
]


def __getattr__(name):
    if name == "obs":
        return importlib.import_module("repro.obs")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
