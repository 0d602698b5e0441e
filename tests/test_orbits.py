"""Tests for automorphism orbits and graphlet degree vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exact import exact_counts, triangles_per_node
from repro.graphlets import graphlet_by_name
from repro.graphlets.catalog import induced_bitmask
from repro.graphlets.orbits import (
    graphlet_degree_signature_similarity,
    graphlet_degree_vectors,
    num_orbits,
    orbit_table,
    position_orbits,
)
from repro.graphs.generators import complete_graph, cycle_graph, path_graph, star_graph


class TestOrbitTable:
    @pytest.mark.parametrize("k, expected", [(3, 3), (4, 11), (5, 58)])
    def test_orbit_counts_match_literature(self, k, expected):
        """3 + 11 + 58 = the 72 non-trivial ORCA orbits for k <= 5."""
        assert num_orbits(k) == expected

    def test_orbit_ids_sequential(self):
        for k in (3, 4):
            ids = [o.orbit_id for o in orbit_table(k)]
            assert ids == list(range(len(ids)))

    def test_orbit_positions_partition_nodes(self):
        for k in (3, 4, 5):
            per_graphlet = {}
            for orbit in orbit_table(k):
                per_graphlet.setdefault(orbit.graphlet_index, []).extend(
                    orbit.positions
                )
            for positions in per_graphlet.values():
                assert sorted(positions) == list(range(k))

    def test_known_orbit_structures(self):
        """Wedge: {ends}, {center}; tailed-triangle: 3 orbits; cliques: 1."""
        def orbits_of(k, name):
            index = graphlet_by_name(k, name).index
            return [o for o in orbit_table(k) if o.graphlet_index == index]

        assert sorted(o.size for o in orbits_of(3, "wedge")) == [1, 2]
        assert len(orbits_of(3, "triangle")) == 1
        assert sorted(o.size for o in orbits_of(4, "tailed-triangle")) == [1, 1, 2]
        assert len(orbits_of(4, "clique")) == 1
        assert len(orbits_of(5, "clique")) == 1
        assert sorted(o.size for o in orbits_of(4, "3-star")) == [1, 3]


class TestPositionOrbits:
    def test_star_positions(self):
        g = star_graph(3)
        mask = induced_bitmask(g, [0, 1, 2, 3])
        orbits = position_orbits(mask, 4)
        # Center (position 0) alone; the three leaves share an orbit.
        assert orbits[1] == orbits[2] == orbits[3]
        assert orbits[0] != orbits[1]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            position_orbits(0b1, 4)  # single edge among 4 nodes

    def test_relabeling_consistency(self):
        """Orbit multiset is invariant under relabeling."""
        from repro.graphlets import relabel_bitmask

        g = path_graph(4)
        mask = induced_bitmask(g, [0, 1, 2, 3])
        orbits = position_orbits(mask, 4)
        perm = (2, 0, 3, 1)
        relabeled = relabel_bitmask(mask, perm, 4)
        orbits_relabeled = position_orbits(relabeled, 4)
        assert sorted(orbits) == sorted(orbits_relabeled)


class TestGraphletDegreeVectors:
    def test_column_sums_match_counts(self, karate):
        """sum_v gdv[v, o] = |orbit| x C_i for o an orbit of graphlet i."""
        for k in (3, 4):
            gdv = graphlet_degree_vectors(karate, k)
            counts = exact_counts(karate, k)
            for orbit in orbit_table(k):
                assert gdv[:, orbit.orbit_id].sum() == orbit.size * counts[
                    orbit.graphlet_index
                ]

    def test_triangle_orbit_equals_triangles_per_node(self, karate):
        gdv = graphlet_degree_vectors(karate, 3)
        triangle_index = graphlet_by_name(3, "triangle").index
        (triangle_orbit,) = [
            o for o in orbit_table(3) if o.graphlet_index == triangle_index
        ]
        assert gdv[:, triangle_orbit.orbit_id].tolist() == triangles_per_node(karate)

    def test_wedge_center_orbit_formula(self, karate):
        """Induced wedges centered at v = C(d_v, 2) - t(v)."""
        gdv = graphlet_degree_vectors(karate, 3)
        wedge_index = graphlet_by_name(3, "wedge").index
        center_orbit = next(
            o
            for o in orbit_table(3)
            if o.graphlet_index == wedge_index and o.size == 1
        )
        triangles = triangles_per_node(karate)
        for v in karate.nodes():
            d = karate.degree(v)
            expected = d * (d - 1) // 2 - triangles[v]
            assert gdv[v, center_orbit.orbit_id] == expected

    def test_cycle_graph_gdv(self):
        """Every node of C6 lies in exactly one induced P3 as center, two
        as an end (and nothing else for k = 3)."""
        g = cycle_graph(6)
        gdv = graphlet_degree_vectors(g, 3)
        wedge_index = graphlet_by_name(3, "wedge").index
        for orbit in orbit_table(3):
            expected = 0
            if orbit.graphlet_index == wedge_index:
                expected = 1 if orbit.size == 1 else 2
            assert (gdv[:, orbit.orbit_id] == expected).all()

    def test_clique_gdv(self):
        g = complete_graph(5)
        gdv = graphlet_degree_vectors(g, 4)
        clique_orbit = next(
            o
            for o in orbit_table(4)
            if o.graphlet_index == graphlet_by_name(4, "clique").index
        )
        # Each node lies in C(4, 3) = 4 of the five K4s.
        assert (gdv[:, clique_orbit.orbit_id] == 4).all()

    def test_signature_similarity(self, karate):
        gdv = graphlet_degree_vectors(karate, 3)
        assert graphlet_degree_signature_similarity(gdv[0], gdv[0]) == pytest.approx(1.0)
        value = graphlet_degree_signature_similarity(gdv[0], gdv[33])
        assert 0 <= value <= 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            graphlet_degree_signature_similarity(np.zeros(3), np.ones(3))
