"""Graph readers and writers.

Supported formats:

* **DIMACS** ``.gr`` (9th DIMACS Implementation Challenge — the format of
  the paper's road networks): ``p sp <n> <m>`` header, ``a <u> <v> <w>``
  arcs, ``c`` comments.  Arcs are 1-based and directed; road networks list
  both directions, which the reader folds into one undirected edge
  (keeping the minimum weight when the two directions disagree).
* **Edge list**: whitespace-separated ``u v w [count]`` lines, ``#``
  comments, 0-based ids.
* **JSON**: lossless round-trip including count weights and coordinates.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.exceptions import ParseError
from repro.graph.graph import Graph

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# DIMACS .gr
# ----------------------------------------------------------------------
def read_dimacs(path: PathLike) -> Graph:
    """Read a DIMACS ``.gr`` file into an undirected :class:`Graph`.

    Vertex ids are converted from 1-based to 0-based.  Duplicate arcs
    keep the smallest weight.
    """
    graph = Graph()
    declared_vertices = None
    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            tag = fields[0]
            if tag == "p":
                if len(fields) != 4 or fields[1] != "sp":
                    raise ParseError(
                        f"malformed problem line {line!r}", line_number
                    )
                declared_vertices = int(fields[2])
                for v in range(declared_vertices):
                    graph.add_vertex(v)
            elif tag == "a":
                if len(fields) != 4:
                    raise ParseError(f"malformed arc line {line!r}", line_number)
                try:
                    u, v, w = int(fields[1]) - 1, int(fields[2]) - 1, int(fields[3])
                except ValueError as exc:
                    raise ParseError(str(exc), line_number) from exc
                if u == v:
                    continue  # road data occasionally contains self-loops
                if w <= 0:
                    raise ParseError(
                        f"arc ({u + 1}, {v + 1}) has non-positive weight {w}",
                        line_number,
                    )
                if not graph.has_edge(u, v) or w < graph.weight(u, v):
                    graph.add_edge(u, v, w)
            else:
                raise ParseError(f"unknown line tag {tag!r}", line_number)
    if declared_vertices is None:
        raise ParseError("missing 'p sp <n> <m>' problem line")
    return graph


def write_dimacs(graph: Graph, path: PathLike, comment: str = "") -> None:
    """Write ``graph`` as a DIMACS ``.gr`` file (both arc directions).

    Vertex ids must be dense ``0..n-1``; they are written 1-based.
    """
    vertices = sorted(graph.vertices())
    if vertices and vertices[-1] != len(vertices) - 1:
        raise ParseError("write_dimacs requires dense 0..n-1 vertex ids")
    with open(path, "w") as handle:
        if comment:
            for line in comment.splitlines():
                handle.write(f"c {line}\n")
        handle.write(f"p sp {graph.num_vertices} {2 * graph.num_edges}\n")
        for u, v, w, _count in graph.edges():
            handle.write(f"a {u + 1} {v + 1} {w}\n")
            handle.write(f"a {v + 1} {u + 1} {w}\n")


# ----------------------------------------------------------------------
# edge list
# ----------------------------------------------------------------------
def read_edge_list(path: PathLike) -> Graph:
    """Read ``u v w [count]`` lines (0-based ids, ``#`` comments)."""
    graph = Graph()
    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise ParseError(f"expected 'u v w [count]', got {line!r}", line_number)
            try:
                u, v = int(fields[0]), int(fields[1])
                w = int(fields[2]) if fields[2].isdigit() else float(fields[2])
                c = int(fields[3]) if len(fields) == 4 else 1
            except ValueError as exc:
                raise ParseError(str(exc), line_number) from exc
            graph.add_edge(u, v, w, c)
    return graph


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write the graph as ``u v w count`` lines."""
    with open(path, "w") as handle:
        handle.write("# u v weight count\n")
        for u, v, w, c in sorted(graph.edges()):
            handle.write(f"{u} {v} {w} {c}\n")


# ----------------------------------------------------------------------
# JSON (lossless)
# ----------------------------------------------------------------------
def to_json_dict(graph: Graph) -> dict:
    """A JSON-serialisable dict capturing the full graph."""
    payload = {
        "vertices": sorted(graph.vertices()),
        "edges": [[u, v, w, c] for u, v, w, c in sorted(graph.edges())],
    }
    if graph.coordinates is not None:
        payload["coordinates"] = {
            str(v): list(xy) for v, xy in graph.coordinates.items()
        }
    return payload


def from_json_dict(payload: dict) -> Graph:
    """Inverse of :func:`to_json_dict`."""
    graph = Graph()
    for v in payload.get("vertices", []):
        graph.add_vertex(v)
    for u, v, w, c in payload.get("edges", []):
        graph.add_edge(u, v, w, c)
    coords = payload.get("coordinates")
    if coords is not None:
        graph.coordinates = {int(v): tuple(xy) for v, xy in coords.items()}
    return graph


def read_json(path: PathLike) -> Graph:
    """Read a graph from a JSON file produced by :func:`write_json`."""
    with open(path) as handle:
        return from_json_dict(json.load(handle))


def write_json(graph: Graph, path: PathLike) -> None:
    """Write the graph (including counts and coordinates) as JSON."""
    with open(path, "w") as handle:
        json.dump(to_json_dict(graph), handle)


# ----------------------------------------------------------------------
# extension dispatch
# ----------------------------------------------------------------------
#: Graph readers by file extension (the formats the tooling accepts).
GRAPH_READERS = {
    ".gr": read_dimacs,
    ".json": read_json,
    ".txt": read_edge_list,
    ".edges": read_edge_list,
    ".edgelist": read_edge_list,
}


def read_graph_auto(path: PathLike) -> Graph:
    """Read a graph, picking the reader from the file extension.

    Shared by the CLI's commands (``serve --graph`` among them).
    """
    target = Path(path)
    if target.is_dir():
        raise ParseError(
            f"{path} is a directory, expected a graph file "
            f"({'/'.join(sorted(GRAPH_READERS))})"
        )
    reader = GRAPH_READERS.get(target.suffix.lower())
    if reader is None:
        raise ParseError(
            f"unrecognised graph extension {target.suffix or '(none)'!r} "
            f"for {path}; expected one of "
            f"{'/'.join(sorted(GRAPH_READERS))} "
            "(.gr = DIMACS, .json = adjacency JSON, "
            ".txt/.edges/.edgelist = 'u v w [count]' edge list)"
        )
    return reader(path)
