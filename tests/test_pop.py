import pytest

from crystalpop.crystal import generate_crystal
from crystalpop.perm import all_permutations, coxeter_pop, identity, parse_permutation
from crystalpop import pop
from crystalpop.pop import (
    NonTermination,
    down_colors,
    is_poppable,
    max_orbit_size,
    orbit,
    orbit_lengths,
    pop_agreement_on_quotient,
    pop_crystal,
    pop_permutation,
    semilattice_pop,
)
from crystalpop.poset import MeetUndefined, ReachabilityIndex
from crystalpop.tableaux import Partition
from oracles import pop_crystal_by_components

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((1, 1), 3), ((2, 2), 3),
    ((3, 1), 3), ((5, 2), 3), ((3, 2, 1), 3), ((2, 1, 1), 4),
]


def test_down_colors():
    graph = generate_crystal(Partition((2, 1), 2))
    assert down_colors(graph, 0) == frozenset()
    assert down_colors(graph, 7) == frozenset({1, 2})
    assert down_colors(graph, 3) == frozenset({2})


def test_pop_crystal_matches_component_definition():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            assert pop_crystal(graph, v) == pop_crystal_by_components(graph, v)


def test_pop_fixes_only_minimum():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            fixed = pop_crystal(graph, v) == v
            assert fixed == (v == graph.min_vertex)


def test_orbit_reaches_minimum_within_coxeter_number():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            rep = orbit(graph, v)
            assert rep.trajectory[-1] == graph.min_vertex
            assert rep.length <= n + 1


def test_max_orbit_equals_coxeter_number():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        size, witness = max_orbit_size(graph)
        assert size == n + 1
        assert orbit(graph, witness).length == size


def test_orbit_lengths_match_orbits():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        assert orbit_lengths(graph) == [
            orbit(graph, v).length for v in range(graph.num_vertices)
        ]


def test_orbit_lengths_reject_a_pop_that_moves_up(monkeypatch):
    graph = generate_crystal(Partition((2, 1), 2))
    monkeypatch.setattr(pop, "pop_crystal", lambda g, v: v + 1)
    with pytest.raises(NonTermination):
        orbit_lengths(graph)


def test_max_orbit_witness_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    size, witness = max_orbit_size(graph)
    assert (size, witness) == (3, 3)
    assert orbit(graph, 3).trajectory == (3, 1, 0)


def test_pop_permutation_example():
    assert pop_permutation(parse_permutation("532481976")) == parse_permutation("235418679")
    assert pop_permutation(identity(6)) == identity(6)


def test_pop_permutation_equals_coxeter_pop():
    for m in range(1, 6):
        for w in all_permutations(m):
            assert pop_permutation(w) == coxeter_pop(w)


def test_semilattice_pop_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    index = ReachabilityIndex(graph)
    # meet of a vertex with its lower covers: differs from the component pop
    # at the two vertices whose covers sit on separate chains
    assert semilattice_pop(graph, 5, index) == 3
    assert pop_crystal(graph, 5) == 1
    assert semilattice_pop(graph, 0, index) == 0
    assert semilattice_pop(graph, 7, index) == 0


def test_semilattice_pop_undefined_off_lattice():
    graph = generate_crystal(Partition((5, 2), 3))
    index = ReachabilityIndex(graph)
    hit = False
    for v in range(graph.num_vertices):
        try:
            semilattice_pop(graph, v, index)
        except MeetUndefined:
            hit = True
            break
    assert hit


def test_is_poppable():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        assert is_poppable(graph)
    with pytest.raises(ValueError):
        is_poppable(generate_crystal(Partition((1,), 1)), max_colors=0)


def test_pop_agreement_on_quotient():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        assert pop_agreement_on_quotient(graph)
