import weakref
from types import SimpleNamespace

import pytest

from crystalpop import poset
from crystalpop.classifier import sweep_pairs
from crystalpop.crystal import SizeLimitExceeded, crystal_levels, generate_crystal
from crystalpop.poset import (
    BowtieCertificate,
    LatticeResult,
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
    is_lattice_by_covers,
    is_lattice_by_pairs,
    is_lattice_top_down,
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


def stub_poset(size, covers):
    """Duck-typed graph on ids 0..size-1 with the given cover edges; rows
    are padded with None to one width, as a crystal's are to n colors."""
    succ = [[] for _ in range(size)]
    pred = [[] for _ in range(size)]
    for u, v in covers:
        succ[u].append(v)
        pred[v].append(u)
    width = max(map(len, succ + pred))
    pad = [row + [None] * (width - len(row)) for row in succ + pred]
    return SimpleNamespace(num_vertices=size, succ=pad[:size], pred=pad[size:])


def searched_bits(adj, start):
    """Bitset of the vertices a depth-first search along adj reaches from
    start, start included."""
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w is not None and w not in seen:
                seen.add(w)
                stack.append(w)
    return sum(1 << w for w in seen)


def test_reachability_matches_dfs():
    for graph in graphs():
        index = ReachabilityIndex(graph)
        reach = reachable_sets(graph)
        for u in range(graph.num_vertices):
            for v in range(graph.num_vertices):
                assert index.leq(u, v) == (v in reach[u])
            assert index.down[u] == searched_bits(graph.pred, u)


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


# 0 < t1, t2; t1 < c1 < u1; t1 < c2 < u2; t2 < d1 < u1; t2 < d2 < u2;
# u1, u2 < top, with t1..top as ids 1..9.
NO_BOWTIE = stub_poset(10, [
    (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6),
    (3, 7), (4, 8), (5, 7), (6, 8), (7, 9), (8, 9),
])
BOOLEAN_B3 = stub_poset(8, [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6),
    (3, 7), (5, 7), (6, 7),
])
# The only joinless pair is (3, 5), two ranks up and covering 2; the covers
# 1 and 2 of the minimum have the join 6.
JOINLESS_AT_RANK_TWO = stub_poset(9, [
    (0, 1), (0, 2), (1, 4), (2, 3), (2, 5), (3, 6), (3, 7), (4, 6),
    (5, 6), (5, 7), (6, 8), (7, 8),
])


# 0 < 1 < 3 and 0 < 2, with 2 and 3 both maximal: the covers 1, 2 of the
# minimum have no upper bound at all.
TWO_MAXIMA = stub_poset(4, [(0, 1), (0, 2), (1, 3)])
# Three minima 0, 1, 2 below three maxima; t2 may be 1 or 2 on the edge (0, 3).
TWO_POSSIBLE_T2 = stub_poset(6, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 3), (2, 5), (2, 3)])
STUBS = [NO_BOWTIE, BOOLEAN_B3, JOINLESS_AT_RANK_TWO, TWO_MAXIMA, TWO_POSSIBLE_T2]


def test_non_lattice_without_a_bowtie():
    assert is_lattice(NO_BOWTIE) == is_lattice_by_pairs(NO_BOWTIE) == LatticeResult(False, (1, 2))
    assert find_bowtie(NO_BOWTIE) is None


def test_boolean_lattice_is_a_lattice():
    assert is_lattice(BOOLEAN_B3) == is_lattice_by_pairs(BOOLEAN_B3) == LatticeResult(True)


def test_cover_check_fails_above_the_minimum():
    graph = JOINLESS_AT_RANK_TWO
    index = ReachabilityIndex(graph)
    assert join(index, 1, 2) == 6
    joinless = [(u, v) for u in range(9) for v in range(u + 1, 9)
                if join(index, u, v) is None]
    assert joinless == [(3, 5)]
    assert is_lattice(graph) == is_lattice_by_pairs(graph) == LatticeResult(False, (3, 5))


def test_verdict_matches_cover_and_pairwise_references_on_stubs():
    for graph in STUBS:
        assert is_lattice(graph) == is_lattice_by_covers(graph) == is_lattice_by_pairs(graph) \
            == is_lattice_top_down(graph)
    assert is_lattice(TWO_MAXIMA) == LatticeResult(False, (1, 2))


def test_cover_check_failure_without_a_joinless_pair_is_a_bug(monkeypatch):
    monkeypatch.setattr(poset, "_first_joinless_pair", lambda up: None)
    result = is_lattice(NO_BOWTIE)
    with pytest.raises(RuntimeError, match="lower covers 7, 8 have no meet but the pair scan finds none"):
        result.witness


@pytest.mark.parametrize("graph,failure", [
    (TWO_MAXIMA, "2 ids are maximal"),
    (TWO_POSSIBLE_T2, "0 and 1 are minimal"),
    # Every pair has a join here, so only the boundedness check rejects it.
    (stub_poset(3, [(0, 2), (1, 2)]), "0 and 1 are minimal"),
])
def test_verdict_rejects_a_second_minimal_or_maximal_element(monkeypatch, graph, failure):
    monkeypatch.setattr(poset, "_first_joinless_pair", lambda up: None)
    result = is_lattice(graph)
    assert not result.is_lattice
    with pytest.raises(RuntimeError, match=f"^{failure} but the pair scan finds none$"):
        result.witness


def staged_verdict(shape):
    """is_lattice fed by the level generator, and the graph it grows."""
    levels = crystal_levels(shape)
    graph = next(levels)
    return is_lattice(graph, levels=levels), graph, levels


def test_staged_verdict_stops_generating_a_non_lattice_at_its_first_meetless_pair(
        monkeypatch):
    shape = Partition((5, 3, 1), 5)
    result, graph, levels = staged_verdict(shape)
    assert not result.is_lattice and graph.num_vertices < 11340
    assert next(levels) is graph  # undrained
    monkeypatch.setattr(poset, "_first_joinless_pair", lambda up: None)
    with pytest.raises(RuntimeError, match="^lower covers 85, 88 have no meet"):
        staged_verdict(shape)[0].witness
    monkeypatch.undo()
    # Reading the witness drains the generator first.
    assert result.witness == (1, 22) and graph.num_vertices == 11340
    assert repr(result) == "LatticeResult(is_lattice=False, witness=(1, 22))"
    assert result == is_lattice(generate_crystal(shape))


def test_staged_verdict_generates_all_of_a_lattice():
    shape = Partition((3, 2, 1), 3)
    result, graph, levels = staged_verdict(shape)
    assert result == LatticeResult(True) and next(levels, None) is None
    assert repr(result) == "LatticeResult(is_lattice=True, witness=None)"
    full = generate_crystal(shape)
    assert (graph.codes, graph.succ) == (full.codes, full.succ)


def test_verdict_builds_no_index_until_the_witness_is_read(index_builds):
    assert is_lattice(generate_crystal(Partition((3, 2, 1), 3))) == LatticeResult(True)
    graph = generate_crystal(Partition((5, 2), 3))
    result = is_lattice(graph)
    assert not result.is_lattice and index_builds == []
    witness = result.witness
    assert index_builds == [graph] and result.witness == witness
    index = ReachabilityIndex(graph)
    assert join(index, *witness) is None
    assert is_lattice(graph, index).witness == witness and index_builds == [graph, graph]


def test_a_read_witness_keeps_no_index():
    graph = generate_crystal(Partition((5, 2), 3))
    index = ReachabilityIndex(graph)
    result, freed = is_lattice(graph, index), weakref.ref(index)
    assert result.witness is not None
    del index
    assert freed() is None


def check_against_pairwise_scan(pairs):
    lattices = 0
    for parts, n in pairs:
        try:
            graph = generate_crystal(Partition(parts, n), cap=20000)
        except SizeLimitExceeded:
            continue
        index = ReachabilityIndex(graph)
        result = is_lattice(graph, index)
        assert result == is_lattice_by_covers(graph, index) == is_lattice_by_pairs(graph, index) \
            == is_lattice_top_down(graph, index) == staged_verdict(graph.shape)[0], (parts, n)
        lattices += result.is_lattice
    return lattices


def test_is_lattice_matches_pairwise_scan():
    assert check_against_pairwise_scan(sweep_pairs(5, 7)) == 83


@pytest.mark.slow
def test_is_lattice_matches_pairwise_scan_to_eight_cells():
    assert check_against_pairwise_scan(sweep_pairs(5, 8)) == 98


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
    graph = TWO_POSSIBLE_T2
    cert = BowtieCertificate(t1=0, t2=1, u1=3, u2=4)
    assert find_bowtie(graph) == find_bowtie_by_candidates(graph) == cert
    assert verify_bowtie(graph, cert)


def test_lattice_and_bowtie_checks_leave_down_sets_unbuilt():
    for graph in graphs() + STUBS:
        index = ReachabilityIndex(graph)
        expected = find_bowtie_by_candidates(graph)
        is_lattice(graph, index)
        if expected is not None:
            assert verify_bowtie(graph, expected, index)
        assert "down" not in vars(index)
        assert find_bowtie(graph, index) == expected
        reach = reachable_sets(graph)
        size = graph.num_vertices
        for u in range(0, size, 3):
            for v in range(u, size, 3):
                assert meet(index, [u, v]) == naive_meet(reach, size, [u, v])


def test_index_reads_only_succ():
    # A poset given by num_vertices and succ alone answers as the full stub.
    for graph in STUBS:
        size = graph.num_vertices
        bare = SimpleNamespace(num_vertices=size, succ=graph.succ)
        full, index = ReachabilityIndex(graph), ReachabilityIndex(bare)
        assert (index.up, index.down) == (full.up, full.down)
        for u in range(size):
            assert [meet(index, [u, v]) for v in range(size)] == [
                meet(full, [u, v]) for v in range(size)]
        assert find_bowtie(bare, index) == find_bowtie(graph, full)


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
