import pytest

from crystalpop.crystal import (
    embed_parabolic_quotient,
    generate_crystal,
    stabilizer_colors,
)
from crystalpop.key import (
    DemazureFamily,
    NonUniqueMinimum,
    all_keys,
    build_demazure_family,
    key_map,
    verify_key_properties,
    verify_pop_key_inequality,
)
from crystalpop.perm import identity, length, parabolic_quotient, parse_permutation, weak_leq
from crystalpop.tableaux import Partition

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((1, 1), 3), ((2, 2), 3),
    ((3, 1), 3), ((2, 1), 3), ((1, 1, 1), 3),
]


def built(parts, n):
    graph = generate_crystal(Partition(parts, n))
    return graph, build_demazure_family(graph)


def test_family_boundary_sets():
    graph, family = built((2, 1), 2)
    order = family.order
    assert order[0] == identity(3)
    assert family.members[order[0]] == 1 << 0
    top = max(order, key=length)
    assert family.members[top] == (1 << graph.num_vertices) - 1


def test_family_monotone_in_weak_order():
    for parts, n in SHAPES:
        _, family = built(parts, n)
        for u in family.order:
            for w in family.order:
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
    assert [str(key_map(graph, family, v)) for v in range(8)] == expected


def test_key_of_minimum_is_identity_and_unique():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        e = identity(n + 1)
        keys = [key_map(graph, family, v) for v in range(graph.num_vertices)]
        assert keys[0] == e
        assert keys.count(e) == 1


def test_all_keys_matches_key_map():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        assert all_keys(graph, family) == [
            key_map(graph, family, v) for v in range(graph.num_vertices)
        ]


def test_incomparable_members_have_no_key():
    graph = generate_crystal(Partition((1,), 1))
    u, w = parse_permutation("213"), parse_permutation("132")
    # vertex 0 lies in two members of equal length, hence Bruhat-incomparable
    family = DemazureFamily(order=[u, w], members={u: 0b11, w: 0b01})
    with pytest.raises(NonUniqueMinimum):
        key_map(graph, family, 0)
    with pytest.raises(NonUniqueMinimum):
        all_keys(graph, family)
    assert key_map(graph, family, 1) == u
    family = DemazureFamily(order=[u], members={u: 0b01})
    with pytest.raises(NonUniqueMinimum):
        all_keys(graph, family)


def test_key_fixes_embedded_quotient():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        for w, v in embed_parabolic_quotient(graph).items():
            assert key_map(graph, family, v) == w


def test_key_lands_in_quotient():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        quotient = set(parabolic_quotient(stabilizer_colors(graph.shape), n + 1))
        for v in range(graph.num_vertices):
            assert key_map(graph, family, v) in quotient


def test_key_property_suite():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        report = verify_key_properties(graph, family)
        assert report.ok, report.violations
        assert report.checked > 0


def test_pop_key_inequality():
    for parts, n in SHAPES:
        graph, family = built(parts, n)
        report = verify_pop_key_inequality(graph, family)
        assert report.ok, report.violations


def test_key_middle_vertices_two_one():
    # the two vertices outside the embedded quotient take the two length-2
    # quotient elements as keys
    graph, family = built((2, 1), 2)
    assert key_map(graph, family, 3) == parse_permutation("231")
    assert key_map(graph, family, 4) == parse_permutation("312")
