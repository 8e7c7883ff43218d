import itertools

import pytest
from hypothesis import given, strategies as st

from crystalpop.perm import (
    Permutation,
    all_permutations,
    bruhat_leq,
    coxeter_pop,
    descents_commute,
    identity,
    left_descents,
    length,
    longest_element,
    longest_parabolic,
    min_coset_rep,
    parabolic_quotient,
    parse_permutation,
    reduced_word,
    right_descents,
    verify_section3_lemmas,
    weak_leq,
)
from oracles import (
    bruhat_leq_by_rank_counts,
    bruhat_lower_interval,
    inversion_count,
    min_coset_rep_by_descents,
    weak_leq_by_length,
    weak_order_pairs,
)

perm_strategy = st.permutations(range(1, 6)).map(lambda t: Permutation(tuple(t)))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_composition_and_inverse():
    w = parse_permutation("231")
    assert (w * w.inverse()) == identity(3)
    assert w(1) == 2
    # (u * v)(i) = u(v(i))
    u = parse_permutation("312")
    assert (u * w).one_line == tuple(u(w(i)) for i in (1, 2, 3))


def test_generator_multiplications():
    w = parse_permutation("231")
    assert w.right_mult_gen(1).one_line == (3, 2, 1)
    assert w.left_mult_gen(1).one_line == (1, 3, 2)


def test_parse_and_str():
    assert str(parse_permutation("532481976")) == "532481976"
    long = Permutation(tuple(range(10, 0, -1)))
    assert parse_permutation(str(long)) == long


def test_length_and_descents():
    w = parse_permutation("321")
    assert length(w) == 3
    assert right_descents(w) == frozenset({1, 2})
    assert left_descents(w) == frozenset({1, 2})
    assert right_descents(identity(4)) == frozenset()


def test_length_and_left_descents_match_direct_counts():
    for m in range(1, 6):
        for w in all_permutations(m):
            assert length(w) == inversion_count(w)
            assert left_descents(w) == right_descents(w.inverse())


def test_weak_order_matches_cover_bfs():
    for m in range(1, 6):
        perms = list(all_permutations(m))
        pairs = weak_order_pairs(perms)
        for u in perms:
            for w in perms:
                expected = (u, w) in pairs
                assert weak_leq_by_length(u, w) == expected
                assert weak_leq(u, w) == expected


def test_bruhat_order_matches_subword_oracle():
    for m in range(1, 6):
        perms = list(all_permutations(m))
        for w in perms:
            below = bruhat_lower_interval(w)
            for u in perms:
                expected = u in below
                assert bruhat_leq_by_rank_counts(u, w) == expected
                assert bruhat_leq(u, w) == expected


def test_order_tests_reject_mismatched_sizes():
    for leq in (weak_leq, bruhat_leq):
        with pytest.raises(ValueError):
            leq(identity(3), identity(4))


def test_weak_implies_bruhat():
    for u, w in itertools.product(all_permutations(4), repeat=2):
        if weak_leq(u, w):
            assert bruhat_leq(u, w)


def test_longest_elements():
    assert longest_element(4).one_line == (4, 3, 2, 1)
    assert longest_parabolic({1, 2}, 4).one_line == (3, 2, 1, 4)
    assert longest_parabolic({1, 3}, 4).one_line == (2, 1, 4, 3)
    assert longest_parabolic(set(), 4) == identity(4)


def test_min_coset_rep_properties():
    for w in all_permutations(4):
        for r in range(4):
            for j in map(frozenset, itertools.combinations(range(1, 4), r)):
                rep = min_coset_rep(w, j)
                assert not (left_descents(rep) & j)
                # rep is in the same left coset W_J w
                assert min_coset_rep(rep, j) == rep


def test_min_coset_rep_matches_descent_stripping():
    for m in range(1, 7):
        subsets = [
            frozenset(c) for r in range(m) for c in itertools.combinations(range(1, m), r)
        ]
        for w in all_permutations(m):
            for j in subsets:
                assert min_coset_rep(w, j) == min_coset_rep_by_descents(w, j)


def test_parabolic_quotient_counts():
    # |S_4| / |S_3| choices of coset: quotient by {1,2} has 4 elements
    q = parabolic_quotient({1, 2}, 4)
    assert len(q) == 4
    assert q[0] == identity(4)
    lengths = [length(w) for w in q]
    assert lengths == sorted(lengths)


def test_reduced_word_reconstructs():
    for w in all_permutations(4):
        word = reduced_word(w)
        assert len(word) == length(w)
        acc = identity(4)
        for i in word:
            acc = acc.right_mult_gen(i)
        assert acc == w


def test_coxeter_pop_examples():
    assert coxeter_pop(identity(5)) == identity(5)
    # w0 pops to the identity in one step
    assert coxeter_pop(longest_element(5)) == identity(5)
    w = parse_permutation("321")
    assert coxeter_pop(w) == identity(3)


def test_descents_commute():
    assert descents_commute(parse_permutation("2143"))
    assert not descents_commute(parse_permutation("321"))
    assert descents_commute(identity(3))


@given(perm_strategy)
def test_pop_strictly_below_in_weak_order(w):
    p = coxeter_pop(w)
    assert weak_leq(p, w)
    if w != identity(5):
        assert length(p) < length(w)


def test_lemma_suite_small():
    for m in (1, 2, 3, 4):
        report = verify_section3_lemmas(m)
        assert report.ok, report.violations


def test_lemma_suite_s5():
    report = verify_section3_lemmas(5)
    assert report.ok, report.violations


@pytest.mark.slow
def test_lemma_suite_s6():
    report = verify_section3_lemmas(6)
    assert report.ok, report.violations
