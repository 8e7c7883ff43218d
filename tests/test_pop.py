import random
from types import SimpleNamespace

import pytest

from crystalpop.classifier import sweep_pairs
from crystalpop.crystal import generate_crystal
from crystalpop.key import build_demazure_family
from crystalpop.perm import coxeter_pop, identity, parse_permutation
from crystalpop import pop
from crystalpop.pop import (
    MAX_POPPABLE_COLORS,
    NonTermination,
    forward_orbit,
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
from oracles import (
    all_permutations,
    coxeter_pop_by_longest_parabolic,
    down_colors,
    is_poppable_by_components,
    pop_crystal_by_color_sets,
    pop_crystal_by_components,
)

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
    for parts, n in sweep_pairs(4, 7):
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            assert pop_crystal(graph, v) == pop_crystal_by_components(graph, v), (parts, n, v)


def test_pop_crystal_matches_color_set_reference():
    # Each query order runs on a fresh graph. In id order every lower
    # cover's pop is known when a vertex is asked, so pops continue from a
    # cover's pop where the nesting lemma allows; in reverse order none is,
    # and every pop is a plain walk; a seeded shuffle mixes the two.
    for parts, n in sweep_pairs(4, 7) + [((5, 3, 1), 4)]:
        graph = generate_crystal(Partition(parts, n))
        size = graph.num_vertices
        expected = [pop_crystal_by_color_sets(graph, v) for v in range(size)]
        for order in (range(size), range(size - 1, -1, -1),
                      random.Random(size).sample(range(size), size)):
            fresh = generate_crystal(Partition(parts, n))
            for v in order:
                assert pop_crystal(fresh, v) == expected[v], (parts, n, v)


@pytest.mark.slow
@pytest.mark.parametrize("parts", [(5, 3, 1), (6, 4, 2)])
def test_memoized_pop_matches_the_reference_at_rank_five(parts):
    graph = generate_crystal(Partition(parts, 5))
    max_orbit_size(graph)
    for v in range(graph.num_vertices):
        assert pop_crystal(graph, v) == pop_crystal_by_color_sets(graph, v), v


def test_one_orbit_computes_only_the_pops_it_walks():
    graph = generate_crystal(Partition((5, 3, 1), 4))
    trajectory = orbit(graph, graph.num_vertices - 1).trajectory
    _, pops, masks = vars(graph)["_pop_memo"]
    assert [v for v, p in enumerate(pops) if p >= 0] == sorted(trajectory)
    assert [pops[v] for v in trajectory] == [*trajectory[1:], 0]
    assert [masks[v] for v in trajectory] == [
        sum(1 << (i - 1) for i in down_colors(graph, v)) for v in trajectory]


def test_pop_past_sixty_four_colors():
    # A single box at n = 70 is the chain 1 -> 2 -> ... -> 71, whose
    # descent masks do not fit in 64 bits.
    graph = generate_crystal(Partition((1,), 70))
    assert max_orbit_size(graph) == (71, 70)
    assert orbit(graph, 70).trajectory == tuple(range(70, -1, -1))


def test_pop_fixes_only_minimum():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            fixed = pop_crystal(graph, v) == v
            assert fixed == (v == 0)


def test_orbit_reaches_minimum_within_coxeter_number():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            rep = orbit(graph, v)
            assert rep.trajectory[-1] == 0
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


def test_orbit_matches_the_orbit_of_pop_crystal():
    for parts, n in sweep_pairs(4, 5):
        graph = generate_crystal(Partition(parts, n))
        for v in range(graph.num_vertices):
            expected = forward_orbit(v, lambda w: pop_crystal(graph, w))
            assert orbit(graph, v).trajectory == expected, (parts, n, v)


def test_orbit_lengths_reject_a_pop_that_moves_up(monkeypatch):
    graph = generate_crystal(Partition((2, 1), 2))
    monkeypatch.setattr(pop, "_popper", lambda graph: lambda v: v + 1)
    with pytest.raises(NonTermination):
        orbit_lengths(graph)


def test_forward_orbit_rejects_a_cycle():
    assert forward_orbit(5, lambda x: max(x - 2, 0)) == (5, 3, 1, 0)
    with pytest.raises(NonTermination):
        forward_orbit(0, lambda x: x ^ 1)


def test_max_orbit_witness_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    size, witness = max_orbit_size(graph)
    assert (size, witness) == (3, 3)
    assert orbit(graph, 3).trajectory == (3, 1, 0)


def test_pop_permutation_example():
    assert pop_permutation(parse_permutation("532481976")) == parse_permutation("235418679")
    assert pop_permutation(identity(6)) == identity(6)


def test_pop_permutation_equals_coxeter_pop():
    assert pop_permutation is coxeter_pop
    for m in range(1, 8):
        for w in all_permutations(m):
            assert coxeter_pop(w) == coxeter_pop_by_longest_parabolic(w), w


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
    n = MAX_POPPABLE_COLORS + 1
    too_many_colors = SimpleNamespace(n=n, num_vertices=1, pred=[[None] * n], succ=[[None] * n])
    with pytest.raises(ValueError):
        is_poppable(too_many_colors)


def test_is_poppable_matches_component_reference():
    for parts, n in sweep_pairs(4, 7) + [((5, 3, 1), 4)]:
        graph = generate_crystal(Partition(parts, n))
        assert is_poppable(graph) == is_poppable_by_components(graph)


def test_two_sources_in_one_component_are_not_poppable():
    # F_1(0) = F_2(1) = 2: the {1, 2}-component {0, 1, 2} has sources 0 and 1
    graph = SimpleNamespace(
        n=2, num_vertices=3,
        pred=[[None, None], [None, None], [0, 1]],
        succ=[[2, None], [None, 2], [None, None]],
    )
    assert not is_poppable(graph)
    assert not is_poppable_by_components(graph)


def test_pop_agreement_on_quotient():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        assert pop_agreement_on_quotient(graph, build_demazure_family(graph).extremal)
