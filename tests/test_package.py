"""Tests for the top-level package facade."""

import repro


class TestFacade:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_docstring_quickstart_works(self):
        graph = repro.road_network(200, seed=7)
        index = repro.CTLSIndex.build(graph)
        vertices = sorted(graph.vertices())
        distance, count = index.query(vertices[0], vertices[-1])
        assert count >= 1
        assert distance < repro.INF

    def test_exceptions_exported(self):
        assert issubclass(repro.ReproError, Exception)


class TestLabelAlignment:
    """The invariant behind every query: label arrays line up."""

    def test_common_prefix_positions_name_same_ancestors(self):
        graph = repro.road_network(200, seed=3)
        index = repro.CTLIndex.build(graph)
        tree = index.tree
        vertices = sorted(graph.vertices())
        for s, t in [(vertices[0], vertices[-1]), (vertices[3], vertices[7])]:
            start, k = index.window(s, t)
            assert start == 0
            ancestors_s = tree.ancestor_vertices(s)
            ancestors_t = tree.ancestor_vertices(t)
            assert ancestors_s[:k] == ancestors_t[:k]

    def test_label_arrays_have_tree_lengths(self):
        graph = repro.road_network(200, seed=3)
        for index in (
            repro.CTLIndex.build(graph),
            repro.CTLSIndex.build(graph),
        ):
            for v in graph.vertices():
                assert index.labels.label_length(v) == index.tree.label_length(v)

    def test_self_label_is_zero_one(self):
        graph = repro.road_network(150, seed=4)
        index = repro.CTLSIndex.build(graph)
        for v in graph.vertices():
            dist, count = index.labels.entry(
                v, index.labels.label_length(v) - 1
            )
            assert (dist, count) == (0, 1)
