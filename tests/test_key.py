import random

import pytest

from crystalpop import key
from crystalpop.classifier import sweep_pairs
from crystalpop.crystal import generate_crystal, stabilizer_colors
from crystalpop.key import (
    DemazureFamily,
    NonUniqueMinimum,
    all_keys,
    build_demazure_family,
    verify_key_properties,
    verify_pop_key_inequality,
)
from crystalpop.perm import Permutation, parse_permutation, weak_leq
from crystalpop.tableaux import Partition
from oracles import (
    build_demazure_family_by_all_covers,
    closure_by_frontier,
    embed_parabolic_quotient_by_words,
    identity,
    key_map_by_filter,
    length,
    parabolic_quotient_by_filter,
    right_key_content,
    verify_key_properties_by_edges,
    verify_pop_key_inequality_by_vertices,
)

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((1, 1), 3), ((2, 2), 3),
    ((3, 1), 3), ((2, 1), 3), ((1, 1, 1), 3),
]


def built(parts, n):
    graph = generate_crystal(Partition(parts, n))
    return graph, build_demazure_family(graph)


def test_family_boundary_sets():
    graph, family = built((2, 1), 2)
    order = list(family.members)
    assert order[0] == identity(3)
    assert family.members[order[0]] == 1 << 0
    top = max(order, key=length)
    assert family.members[top] == (1 << graph.num_vertices) - 1


def test_family_monotone_in_weak_order():
    for parts, n in SHAPES:
        _, family = built(parts, n)
        for u in family.members:
            for w in family.members:
                if weak_leq(u, w):
                    assert family.members[u] & ~family.members[w] == 0


def test_family_two_one_hand_values():
    graph, family = built((2, 1), 2)
    by_line = {w.one_line: bits for w, bits in family.members.items()}

    def ids(bits):
        return {v for v in range(graph.num_vertices) if bits >> v & 1}

    assert ids(by_line[(1, 2, 3)]) == {0}
    assert ids(by_line[(2, 1, 3)]) == {0, 1}
    assert ids(by_line[(1, 3, 2)]) == {0, 2}
    assert ids(by_line[(2, 3, 1)]) == {0, 1, 2, 3, 5}
    assert ids(by_line[(3, 1, 2)]) == {0, 1, 2, 4, 6}
    assert ids(by_line[(3, 2, 1)]) == set(range(8))


def test_key_values_two_one():
    graph, family = built((2, 1), 2)
    expected = ["123", "213", "132", "231", "312", "231", "312", "321"]
    assert [str(w) for w in all_keys(graph, family)] == expected


def test_key_of_minimum_is_identity_and_unique():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        e = identity(n + 1)
        keys = all_keys(graph, family)
        assert keys[0] == e
        assert keys.count(e) == 1


def test_all_keys_matches_key_map():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        assert all_keys(graph, family) == [
            key_map_by_filter(family, v) for v in range(graph.num_vertices)
        ]


def test_incomparable_members_have_no_key():
    graph = generate_crystal(Partition((1,), 1))
    u, w = parse_permutation("213"), parse_permutation("132")
    # vertex 0 lies in two members of equal length, hence Bruhat-incomparable
    family = DemazureFamily(members={u: 0b11, w: 0b01}, extremal={})
    with pytest.raises(NonUniqueMinimum):
        all_keys(graph, family)
    family = DemazureFamily(members={u: 0b01}, extremal={})
    with pytest.raises(NonUniqueMinimum):
        all_keys(graph, family)


def test_extremal_matches_reduced_word_embedding():
    for parts, n in sweep_pairs(4, 6):
        graph, family = built(parts, n)
        assert family.extremal == embed_parabolic_quotient_by_words(graph), (parts, n)
        quotient = parabolic_quotient_by_filter(stabilizer_colors(graph.shape), n + 1)
        assert list(family.members) == list(family.extremal) == quotient, (parts, n)


def assert_keys_match_right_keys(pairs):
    """content(K_+(T)) = w·λ for the key w of each vertex T: entry i-1 of
    the content counts the i's, and is λ_{w(i)}."""
    for parts, n in pairs:
        graph, family = built(parts, n)
        lam = parts + (0,) * (n + 1 - len(parts))
        for v, w in enumerate(all_keys(graph, family)):
            assert right_key_content(graph.rows(v), n) == tuple(
                lam[x - 1] for x in w.one_line), (parts, n, v)


def test_all_keys_match_right_keys_by_scanning():
    assert_keys_match_right_keys(sweep_pairs(4, 7))


@pytest.mark.slow
def test_all_keys_match_right_keys_by_scanning_through_eight_cells():
    assert_keys_match_right_keys(sweep_pairs(5, 8))


def test_key_fixes_embedded_quotient():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        keys = all_keys(graph, family)
        for w, v in family.extremal.items():
            assert keys[v] == w


def test_key_lands_in_quotient():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        quotient = set(parabolic_quotient_by_filter(stabilizer_colors(graph.shape), n + 1))
        assert set(all_keys(graph, family)) <= quotient


def test_key_property_suite():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        report = verify_key_properties(graph, all_keys(graph, family))
        assert report.ok, report.violations
        assert report.checked > 0


def test_pop_key_inequality():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        report = verify_pop_key_inequality(graph, all_keys(graph, family))
        assert report.ok, report.violations


def test_key_checks_match_per_edge_and_per_vertex_forms():
    """Testing each distinct key pair once reports what one test per edge
    or vertex reports, for the true keys, for corrupted keys (every third
    vertex takes the key of its mirror id), which fail every kind of check,
    and for fresh equal copies (one Permutation per vertex), which the
    checks must number by value."""
    messages = set()
    for parts, n in sweep_pairs(4, 6):
        graph, family = built(parts, n)
        kappa = all_keys(graph, family)
        corrupted = [
            kappa[-1 - v] if v % 3 == 1 else w for v, w in enumerate(kappa)
        ]
        copies = [Permutation(w.one_line) for w in kappa]
        for keys in (kappa, corrupted, copies):
            for check, oracle in ((verify_key_properties, verify_key_properties_by_edges),
                                  (verify_pop_key_inequality,
                                   verify_pop_key_inequality_by_vertices)):
                report, expected = check(graph, keys), oracle(graph, keys)
                assert (report.checked, report.violations) == (
                    expected.checked, expected.violations), (parts, n, check.__name__)
                messages.update(v.split(" fails")[0] for v in report.violations)
    assert {"order preservation", "pop/key inequality"} <= messages


def test_pop_key_inequality_reads_the_coxeter_pop(monkeypatch):
    # With pop(key(v)) replaced by the identity, every vertex whose pop has a
    # nontrivial key fails; the keys themselves would pass.
    graph, family = built((2, 1), 2)
    monkeypatch.setattr(key, "coxeter_pop", lambda w: identity(w.m))
    report = verify_pop_key_inequality(graph, all_keys(graph, family))
    assert report.checked == 8
    assert report.violations == [f"pop/key inequality fails at vertex {v}" for v in (3, 4, 5, 6)]


def test_key_middle_vertices_two_one():
    # the two vertices outside the embedded quotient take the two length-2
    # quotient elements as keys
    graph, family = built((2, 1), 2)
    keys = all_keys(graph, family)
    assert keys[3] == parse_permutation("231")
    assert keys[4] == parse_permutation("312")


CLOSURE_PAIRS = list(sweep_pairs(4, 6)) + [((5, 3, 1), 5)]


def subsets(size, rng):
    """The empty and full sets, dense and sparse random sets, and one vertex."""
    full = (1 << size) - 1
    dense = rng.getrandbits(size)
    sparse = dense & rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
    return [0, full, dense, sparse, 1 << rng.randrange(size)]


def test_closure_matches_frontier_closure():
    rng = random.Random(21)
    for parts, n in CLOSURE_PAIRS:
        graph = generate_crystal(Partition(parts, n))
        for bits in subsets(graph.num_vertices, rng):
            for i in range(1, n + 1):
                assert key._closure(graph.succ, bits, i) == closure_by_frontier(
                    graph.succ, bits, i), (parts, n, i)


def test_family_matches_family_built_by_frontier_closure(monkeypatch):
    for parts, n in CLOSURE_PAIRS:
        graph, family = built(parts, n)
        with monkeypatch.context() as patch:
            patch.setattr(key, "_closure", closure_by_frontier)
            reference = build_demazure_family(graph)
        assert family.members == reference.members, (parts, n)
        assert family.extremal == reference.extremal, (parts, n)
        assert list(family.members) == list(reference.members), (parts, n)


def assert_family_matches_all_covers(pairs):
    for parts, n in pairs:
        graph, family = built(parts, n)
        reference = build_demazure_family_by_all_covers(graph)
        assert family.members == reference.members, (parts, n)
        assert family.extremal == reference.extremal, (parts, n)


def test_family_matches_family_closing_every_cover():
    assert_family_matches_all_covers(sweep_pairs(4, 7))


@pytest.mark.slow
def test_family_matches_family_closing_every_cover_at_rank_five():
    assert_family_matches_all_covers([((6, 4, 2), 5)])


class CountingRows(list):
    """A succ table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def test_closure_reads_each_row_at_most_once():
    rng = random.Random(5)
    graph = generate_crystal(Partition((5, 3, 1), 5))
    for case, bits in enumerate(subsets(graph.num_vertices, rng)):
        for i in range(1, 6):
            succ = CountingRows(graph.succ)
            added = key._closure(succ, bits, i) & ~bits
            assert succ.reads <= bits.bit_count() + added.bit_count(), (case, i)
