import pytest

from crystalpop.crystal import generate_crystal
from crystalpop.poset import (
    BowtieCertificate,
    ReachabilityIndex,
    find_bowtie,
    is_lattice,
    join,
    meet,
    minimal_upper_bounds,
    verify_bowtie,
)
from crystalpop.tableaux import Partition
from oracles import components_and_sources, levi_restrict, naive_join, naive_meet, reachable_sets

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((2, 2), 3), ((3, 1), 3),
    ((5, 2), 3), ((2, 2, 1), 3), ((3, 2, 1), 3),
]


def graphs():
    return [generate_crystal(Partition(parts, n)) for parts, n in SHAPES]


def test_reachability_matches_dfs():
    for graph in graphs():
        index = ReachabilityIndex(graph)
        reach = reachable_sets(graph)
        for u in range(graph.num_vertices):
            for v in range(graph.num_vertices):
                assert index.leq(u, v) == (v in reach[u])


def test_join_matches_naive():
    for graph in graphs():
        index = ReachabilityIndex(graph)
        reach = reachable_sets(graph)
        for u in range(graph.num_vertices):
            for v in range(u, graph.num_vertices):
                assert join(index, u, v) == naive_join(reach, u, v)


def test_meet_matches_naive():
    for graph in graphs():
        index = ReachabilityIndex(graph)
        reach = reachable_sets(graph)
        size = graph.num_vertices
        for u in range(0, size, 3):
            for v in range(u, size, 3):
                assert meet(index, [u, v]) == naive_meet(reach, size, [u, v])


def test_meet_of_empty_set_rejected():
    graph = generate_crystal(Partition((2, 1), 2))
    with pytest.raises(ValueError):
        meet(ReachabilityIndex(graph), [])


def test_minimal_upper_bounds():
    # the incomparable middle vertices of the 8-element crystal meet again
    # only at the top
    graph = generate_crystal(Partition((2, 1), 2))
    index = ReachabilityIndex(graph)
    assert minimal_upper_bounds(index, 3, 4) == [7]
    # cross-check against brute force on a non-lattice
    graph = generate_crystal(Partition((5, 2), 3))
    index = ReachabilityIndex(graph)
    reach = reachable_sets(graph)
    for u in range(0, graph.num_vertices, 7):
        for v in range(u, graph.num_vertices, 7):
            common = reach[u] & reach[v]
            expected = sorted(
                w for w in common
                if not any(x != w and w in reach[x] for x in common)
            )
            assert sorted(minimal_upper_bounds(index, u, v)) == expected


def test_is_lattice_known_cases():
    assert is_lattice(generate_crystal(Partition((2, 1), 2))).is_lattice
    assert is_lattice(generate_crystal(Partition((3, 2, 1), 3))).is_lattice
    result = is_lattice(generate_crystal(Partition((5, 2), 3)))
    assert not result.is_lattice and result.witness is not None


def test_lattice_witness_has_no_join():
    graph = generate_crystal(Partition((5, 2), 3))
    index = ReachabilityIndex(graph)
    result = is_lattice(graph, index)
    u, v = result.witness
    assert join(index, u, v) is None


def test_find_bowtie_agrees_with_is_lattice():
    for graph in graphs():
        index = ReachabilityIndex(graph)
        cert = find_bowtie(graph, index)
        if is_lattice(graph, index).is_lattice:
            assert cert is None
        else:
            assert cert is not None
            assert verify_bowtie(graph, cert, index)


def test_verify_bowtie_rejects_bad_certificate():
    graph = generate_crystal(Partition((2, 1), 2))
    cert = BowtieCertificate(t1=0, t2=1, u1=2, u2=3)
    assert not verify_bowtie(graph, cert)


def test_components_and_sources():
    graph = generate_crystal(Partition((2, 1), 2))
    view = levi_restrict(graph, {1})
    component, sources = components_and_sources(view, 6)
    assert component == {2, 4, 6}
    assert sources == {2}
    view = levi_restrict(graph, frozenset())
    component, sources = components_and_sources(view, 5)
    assert component == sources == {5}
