from types import SimpleNamespace

import pytest

from crystalpop.classifier import sweep_pairs
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
from oracles import (
    components_and_sources,
    find_bowtie_by_candidates,
    levi_restrict,
    naive_join,
    naive_meet,
    reachable_sets,
)

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


def test_find_bowtie_matches_candidate_reference():
    for parts, n in sweep_pairs(4, 7) + [((5, 3, 1), 4)]:
        graph = generate_crystal(Partition(parts, n))
        index = ReachabilityIndex(graph)
        cert = find_bowtie(graph, index)
        assert cert == find_bowtie_by_candidates(graph, index), (parts, n)
        assert (cert is None) == is_lattice(graph, index).is_lattice, (parts, n)
        assert cert is None or verify_bowtie(graph, cert, index), (parts, n)


def test_find_bowtie_takes_up_sets_of_every_possible_t2():
    # On the cover edge (0, 3) both 1 and 2 can be t2; u2 = 4 lies above 1
    # only and u2 = 5 above 2 only, so the first u2 needs both up-sets.
    succ = [[3, 4, 5], [4, 3, None], [5, None, 3]] + [[None] * 3 for _ in range(3)]
    pred = [[None] * 3 for _ in succ]
    for v, row in enumerate(succ):
        for i, w in enumerate(row):
            if w is not None:
                pred[w][i] = v
    graph = SimpleNamespace(num_vertices=len(succ), succ=succ, pred=pred)
    cert = BowtieCertificate(t1=0, t2=1, u1=3, u2=4)
    assert find_bowtie(graph) == find_bowtie_by_candidates(graph) == cert
    assert verify_bowtie(graph, cert)


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
