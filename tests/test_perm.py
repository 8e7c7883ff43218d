import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from crystalpop import perm
from crystalpop.perm import (
    Permutation,
    bruhat_leq,
    coset_rep_tables,
    coxeter_pop,
    parabolic_quotient,
    parse_permutation,
    verify_section3_lemmas,
    weak_covers,
    weak_leq,
)
from oracles import (
    all_permutations,
    bruhat_leq_by_rank_counts,
    bruhat_lower_interval,
    coset_rep_tables_by_rewrite,
    coxeter_pop_by_longest_parabolic,
    descents_commute,
    identity,
    inversion_count,
    left_descents,
    left_mult_gen,
    length,
    longest_element,
    min_coset_line,
    min_coset_rep,
    min_coset_rep_by_descents,
    parabolic_quotient_by_filter,
    right_descents,
    right_mult_gen,
    verify_section3_lemmas_by_pairs,
    weak_leq_by_length,
    weak_order_pairs,
)

perm_strategy = st.permutations(range(1, 6)).map(lambda t: Permutation(tuple(t)))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_generator_multiplications():
    w = parse_permutation("231")
    assert right_mult_gen(w, 1).one_line == (3, 2, 1)
    assert left_mult_gen(w, 1).one_line == (1, 3, 2)


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
            line = w.one_line
            assert left_descents(w) == {i for i in range(1, m) if line.index(i + 1) < line.index(i)}


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


def generator_subsets(m):
    return [frozenset(c) for r in range(m) for c in itertools.combinations(range(1, m), r)]


def test_parabolic_quotient_climb_matches_filter():
    for m in range(1, 7):
        for j in generator_subsets(m):
            assert parabolic_quotient(j, m) == parabolic_quotient_by_filter(j, m), (m, j)
    # generators outside [1, m-1] are ignored
    assert parabolic_quotient({0, 2, 4, 9}, 4) == parabolic_quotient_by_filter({2}, 4)


@pytest.mark.slow
def test_parabolic_quotient_climb_matches_filter_s7():
    for j in generator_subsets(7):
        assert parabolic_quotient(j, 7) == parabolic_quotient_by_filter(j, 7), j


def test_parabolic_quotient_builds_only_the_quotient(monkeypatch):
    def no_permutations(m):
        raise AssertionError("S_m was built")

    monkeypatch.setattr(perm, "permutation_lines", no_permutations)
    q = parabolic_quotient(frozenset(range(2, 12)), 12)
    # one minimal representative per coset of S_1 x S_11: where 1 is sent
    assert len(q) == 12
    assert [w.one_line.index(1) for w in q] == list(range(12))


def test_reduced_word_reconstructs():
    for w in all_permutations(4):
        word = oracles.reduced_word(w)
        assert len(word) == length(w)
        acc = identity(4)
        for i in word:
            acc = right_mult_gen(acc, i)
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
    for m, checked in ((1, 3), (2, 16), (3, 113), (4, 1532)):
        report = verify_section3_lemmas(m)
        assert report.ok, report.violations
        assert report.checked == checked


def test_lemma_suite_s5():
    report = verify_section3_lemmas(5)
    assert report.ok, report.violations
    assert report.checked == 33889


def test_lemma_suite_s6():
    report = verify_section3_lemmas(6)
    assert report.ok, report.violations
    assert report.checked == 1070774


def test_lemma_suite_s7():
    report = verify_section3_lemmas(7)
    assert report.ok, report.violations
    assert report.checked == 44323353


@pytest.mark.slow
def test_lemma_suite_s8():
    report = verify_section3_lemmas(8)
    assert report.ok, report.violations
    assert report.checked == 2288862776


def test_lemma_suite_matches_pairwise_scan():
    for m in range(1, 6):
        report = verify_section3_lemmas(m)
        expected = verify_section3_lemmas_by_pairs(m)
        assert (report.checked, report.violations) == (expected.checked, expected.violations)


def all_of(m):
    lines = list(itertools.permutations(range(1, m + 1)))
    return lines, {line: i for i, line in enumerate(lines)}


def within(values, packed):
    """The set of i whose values[i] lies within packed, by brute force."""
    return sum(1 << i for i, v in enumerate(values) if not v & ~packed)


@pytest.mark.parametrize("values,packed", [
    ([0], 0),  # S_1: the only permutation has no inversions
    ([0, 0, 0], 0b11),
    ([0b101, 0b100, 0], 0b110),  # no value sets bit 1
    ([0b101, 0b100, 0], 0b101),
    ([0b1000, 0b1], 0b11110),  # packed holds bits no value sets
    ([1 << 20 | 1, 0xFF, 1 << 8], 0x1FF),  # bits in three bytes
])
def test_columns_and_lacking_answer_containment(values, packed):
    cols = perm._columns(values)
    assert cols == {
        b: sum(1 << i for i, v in enumerate(values) if v >> b & 1)
        for b in range(max(values).bit_length()) if any(v >> b & 1 for v in values)
    }
    everything = (1 << len(values)) - 1
    assert everything & ~perm._lacking(cols, packed) == within(values, packed)


@given(st.lists(st.integers(0, 1 << 12), min_size=1, max_size=40), st.integers(0, 1 << 14))
def test_columns_and_lacking_match_brute_force(values, packed):
    everything = (1 << len(values)) - 1
    assert everything & ~perm._lacking(perm._columns(values), packed) == within(values, packed)


SPARSE = 1 << 69_999 | 1 << 40_000 | 1 << 64 | 1 << 63 | 1


@pytest.mark.parametrize("v", [
    0, 1, 2, 0b1011, SPARSE, (1 << 70_000) - 1,  # empty, single bits, sparse and full
    (1 << 70_000) // 3, int("110" * 23_334, 2),  # dense: every other bit, two of three
], ids=["0", "1", "2", "1011", "sparse", "full", "alternate", "two-of-three"])
def test_set_bits_lists_the_set_bits(v):
    assert list(perm._set_bits(v)) == [b for b in range(v.bit_length()) if v >> b & 1]


@given(st.integers(0, 1 << 300))
def test_set_bits_matches_brute_force(v):
    assert list(perm._set_bits(v)) == [b for b in range(v.bit_length()) if v >> b & 1]


def test_coset_rep_tables_and_covers_match_direct_forms():
    lines, index = all_of(6)
    perms = list(all_permutations(6))
    assert [w.one_line for w in perms] == lines
    tables = list(coset_rep_tables(lines, [w.inversion_mask for w in perms]))
    assert [j for j, _ in tables] == generator_subsets(6)
    for j, rep in tables:
        assert rep == [index[min_coset_rep(w, j).one_line] for w in perms], j
    covers = [
        (y, z)
        for y, u in enumerate(perms)
        for z, w in enumerate(perms)
        if length(w) == length(u) + 1 and weak_leq(u, w)
    ]
    assert sorted(zip(*weak_covers(lines, index))) == covers


def assert_walks_match_rewrite(m):
    lines, _ = all_of(m)
    masks = list(map(perm._inversion_mask, lines))
    walked = list(coset_rep_tables(lines, masks))
    assert walked == list(coset_rep_tables_by_rewrite(lines))
    assert [j for j, _ in walked] == generator_subsets(m)


@pytest.mark.parametrize("m", range(1, 7))
def test_coset_rep_walks_match_rewrite(m):
    assert_walks_match_rewrite(m)


@pytest.mark.slow
def test_coset_rep_walks_match_rewrite_s7():
    assert_walks_match_rewrite(7)


@pytest.mark.parametrize("m", range(1, 7))
def test_tuple_bodies_match_direct_forms(m):
    for line in itertools.permutations(range(1, m + 1)):
        inversions = sum(
            1 << (a - 1) * m + b - 1 for p, b in enumerate(line) for a in line[p + 1:] if a < b
        )
        assert perm._inversion_mask(line) == inversions
        ranks = 0  # r[i, j] = #{a <= i : w(a) >= j}, in unary fields, row i = 1 first
        for i in range(1, m):
            for j in range(2, m + 1):
                ranks = ranks << (m - 1) | (1 << sum(v >= j for v in line[:i])) - 1
        assert perm._bruhat_ranks(line) == ranks
        w = Permutation(line)
        assert Permutation(perm._pop_line(line)) == coxeter_pop_by_longest_parabolic(w)
        desc = right_descents(w)
        assert perm._descents_commute(line) == all(i + 1 not in desc for i in desc)


def unary_fields(m):
    """lows and fields of the rank arrays of S_m: (m-1)^2 fields of m-1 bits."""
    width = m - 1
    return sum(1 << width * f for f in range(width * width)), (1 << width ** 3) - 1


@pytest.mark.parametrize("m", [5, 6])
def test_unary_lacking_matches_every_bit_query(m):
    lines, _ = all_of(m)
    ranks = list(map(perm._bruhat_ranks, lines))
    cols = perm._columns(ranks)
    lows, fields = unary_fields(m)
    for rank in ranks:
        assert perm._unary_lacking(cols, rank, lows, fields) == perm._lacking(cols, rank)


@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_unary_lacking_matches_every_bit_query_on_random_fields(width, count, data):
    def pack(counts):
        return sum(((1 << c) - 1) << width * f for f, c in enumerate(counts))

    field_counts = st.lists(st.integers(0, width), min_size=count, max_size=count)
    values = data.draw(st.lists(field_counts.map(pack), min_size=1, max_size=30))
    packed = data.draw(field_counts.map(pack))
    lows = sum(1 << width * f for f in range(count))
    fields = (1 << width * count) - 1
    cols = perm._columns(values)
    assert perm._unary_lacking(cols, packed, lows, fields) == perm._lacking(cols, packed)


def use_reps(monkeypatch, line_rep):
    """Make both suites take their coset representatives from line_rep: the
    bitset suite through perm.coset_rep_tables, here the rewrite tables
    built on line_rep, and the pairwise scan through oracles.min_coset_rep."""
    monkeypatch.setattr(
        perm, "coset_rep_tables", lambda lines, masks: coset_rep_tables_by_rewrite(lines, line_rep)
    )
    monkeypatch.setattr(
        oracles, "min_coset_rep", lambda w, gens: Permutation(line_rep(w.one_line, gens))
    )


def use_pop(monkeypatch, line_pop):
    """Make both suites pop with line_pop: coxeter_pop, which the pairwise
    scan calls, pops through perm._pop_line, as the bitset suite does."""
    monkeypatch.setattr(perm, "_pop_line", line_pop)


def assert_suites_agree(m):
    report = verify_section3_lemmas(m)
    expected = verify_section3_lemmas_by_pairs(m)
    assert (report.checked, report.violations) == (expected.checked, expected.violations)
    return report


def test_lemma_suite_failures_match_pairwise_scan(monkeypatch):
    """Wrong coset representatives and a wrong pop make every kind of pair
    check fail; both suites must list the same failures in the same order."""
    true_pop = perm._pop_line

    def wrong_rep(line, gens):
        return line if len(gens) == 1 and line[-1] == 1 else min_coset_line(line, gens)

    def wrong_pop(line):
        # Still lowers the length, so the sorting-time orbits end.
        return tuple(range(1, len(line) + 1)) if line[0] == 3 else true_pop(line)

    use_reps(monkeypatch, wrong_rep)
    use_pop(monkeypatch, wrong_pop)
    for m in (3, 4):
        report = assert_suites_agree(m)
    for kind in ("quotient monotonicity", "pop/quotient exchange", "Bruhat pop monotonicity"):
        assert any(v.startswith(kind) for v in report.violations), kind


def test_lemma_suite_in_coset_wrong_reps_match_pairwise_scan(monkeypatch):
    """For J = {1, 2} each coset whose minimal representative starts with 1
    gets s_1 times it: an element of the right coset, but not the minimal
    one. The larger J built on J = {1, 2} must still get their true
    representatives."""
    def in_coset_rep(line, gens):
        rep = min_coset_line(line, gens)
        if set(gens) != {1, 2} or rep[0] != 1:
            return rep
        return tuple({1: 2, 2: 1}.get(a, a) for a in rep)

    use_reps(monkeypatch, in_coset_rep)
    for m in (4, 5):
        report = assert_suites_agree(m)
        assert any(v.startswith("quotient monotonicity fails: J={1, 2} ")
                   for v in report.violations)
        assert not any("J={1, 2, 3}" in v for v in report.violations)


def test_lemma_suite_scans_a_subset_with_one_broken_cover(monkeypatch):
    """A representative that breaks exactly one weak cover for J = {3} on
    S_4 sends the suite to its per-y scan for that J, which lists the same
    failing pairs as the pairwise scan."""
    def one_wrong(line, gens):
        if set(gens) == {3} and line == (1, 2, 4, 3):
            return (1, 3, 2, 4)
        return min_coset_line(line, gens)

    use_reps(monkeypatch, one_wrong)
    lines, index = all_of(4)
    rep = dict(perm.coset_rep_tables(lines, list(map(perm._inversion_mask, lines))))[frozenset({3})]
    broken = [
        (y, z) for y, z in zip(*weak_covers(lines, index))
        if not weak_leq(Permutation(lines[rep[y]]), Permutation(lines[rep[z]]))
    ]
    assert broken == [(index[(1, 2, 4, 3)], index[(2, 1, 4, 3)])]
    report = assert_suites_agree(4)
    assert "quotient monotonicity fails: J={3} y=1243 z=2143" in report.violations


def test_lemma_suite_reports_a_pop_that_does_not_sort(monkeypatch):
    """A pop that leaves the last descending run as it is fixes w0 and other
    non-identity permutations; both suites stop the sorting-time walk after
    m pops and report it instead of looping."""
    true_pop = perm._pop_line

    def stuck_pop(line):
        k = len(line) - 1
        while k > 0 and line[k - 1] > line[k]:
            k -= 1
        return true_pop(line)[:k] + line[k:]

    assert stuck_pop(longest_element(4).one_line) == longest_element(4).one_line
    use_pop(monkeypatch, stuck_pop)
    report = verify_section3_lemmas(4)
    expected = verify_section3_lemmas_by_pairs(4)
    assert not report.ok and not expected.ok
    assert (report.checked, report.violations) == (expected.checked, expected.violations)
    assert "sorting time of quotient-maximal element is over 4, expected 3 (s=3)" in report.violations


def test_lemma_suite_reads_sorting_starts_from_the_coset_tables(monkeypatch):
    """Representatives wrong only at w0 for |J| = m-2, given to the bitset
    suite through its coset tables alone: each w0^J becomes w0, which one
    pop sorts, and both suites must report the same sorting times."""
    true_tables, true_rep = perm.coset_rep_tables, oracles.min_coset_rep

    def wrong_tables(lines, masks):
        for j, rep in true_tables(lines, masks):
            yield j, rep[:-1] + [len(lines) - 1] if len(j) == len(lines[0]) - 2 else rep

    def wrong_rep(w, gens):
        return w if len(gens) == w.m - 2 and w == longest_element(w.m) else true_rep(w, gens)

    monkeypatch.setattr(perm, "coset_rep_tables", wrong_tables)
    monkeypatch.setattr(oracles, "min_coset_rep", wrong_rep)
    for m in (3, 4, 5):
        report = assert_suites_agree(m)
        assert [v for v in report.violations if v.startswith("sorting time")] == [
            f"sorting time of quotient-maximal element is 1, expected {m - 1} (s={s})"
            for s in range(1, m)
        ]


def test_passing_lemma_suite_builds_no_permutation(monkeypatch):
    def refuse(self, one_line):
        raise AssertionError(f"built a Permutation of {one_line}")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    report = verify_section3_lemmas(5)
    assert report.ok and report.checked == 33889
