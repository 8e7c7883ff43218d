import math

import pytest
from hypothesis import given, strategies as st

from crystalpop.classifier import sweep_pairs
from crystalpop.tableaux import (
    ColumnViolation,
    EntryOutOfRange,
    Partition,
    RowViolation,
    ShapeMismatch,
    dual_shape,
    highest_weight_tableau,
    hook_content_count,
    parse_partition,
    parse_tableau,
    reading_word,
    row_slices,
    validate_tableau,
)
from oracles import enumerate_ssyt, hook_content_count_by_product, weight


def test_partition_basics():
    p = Partition((3, 1), 3)
    assert len(p) == 2
    assert p.part(1) == 3 and p.part(2) == 1 and p.part(3) == 0 and p.part(99) == 0
    assert str(p) == "3,1"


def test_partition_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0), 3).parts == (3, 1)
    assert Partition((0, 0), 5).parts == ()


@pytest.mark.parametrize("parts,n", [((1, 2), 3), ((3, -1), 3), ((2, 1, 1), 2), ((1,), 0)])
def test_partition_rejects_bad_input(parts, n):
    with pytest.raises(ShapeMismatch):
        Partition(parts, n)


def test_parse_partition_roundtrip():
    p = parse_partition("4,2,1", 4)
    assert p.parts == (4, 2, 1)
    with pytest.raises(ShapeMismatch):
        parse_partition("a,b", 3)


def test_dual_shape_examples():
    assert dual_shape(Partition((2, 1), 2)).parts == (2, 1)
    assert dual_shape(Partition((3, 3, 1), 3)).parts == (3, 2)
    assert dual_shape(Partition((k := 4,), 3)).parts == (k, k, k)


def test_dual_shape_involution():
    for parts, n in [((3, 1), 3), ((2, 2), 3), ((5, 2), 4), ((3, 2, 1), 4)]:
        p = Partition(parts, n)
        assert dual_shape(dual_shape(p)) == p


def test_validate_tableau_accepts_and_rejects():
    shape = Partition((2, 1), 2)
    t = validate_tableau(shape, [(1, 2), (2,)])
    assert t.rows[0][1] == 2
    with pytest.raises(RowViolation):
        validate_tableau(shape, [(2, 1), (3,)])
    with pytest.raises(ColumnViolation):
        validate_tableau(shape, [(1, 1), (1,)])
    with pytest.raises(EntryOutOfRange):
        validate_tableau(shape, [(1, 4), (2,)])
    with pytest.raises(ShapeMismatch):
        validate_tableau(shape, [(1, 1, 1), (2,)])


def test_with_entry_revalidates():
    t = validate_tableau(Partition((2, 1), 2), [(1, 1), (2,)])
    assert t.with_entry(1, 2, 2).rows == ((1, 2), (2,))
    with pytest.raises(ColumnViolation):
        t.with_entry(2, 1, 1)


def test_highest_weight_tableau():
    t = highest_weight_tableau(Partition((3, 2), 4))
    assert t.rows == ((1, 1, 1), (2, 2))


def test_reading_word_bottom_up():
    t = parse_tableau("1,1,2,2,3/3,3", 3)
    assert reading_word(t) == (3, 3, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("parts,n", [((), 2), ((1,), 1), ((3, 1), 3), ((2, 2, 1), 3)])
def test_row_slices_cut_the_reading_word_into_rows(parts, n):
    for t in enumerate_ssyt(Partition(parts, n)):
        word = reading_word(t)
        assert tuple(word[s] for s in row_slices(t.shape)) == t.rows


def test_weight_counts():
    t = parse_tableau("1,1,2,2,3/3,3", 3)
    assert weight(t) == (2, 2, 3, 0)


def test_format_parse_roundtrip():
    text = "1,1,2,2,3/3,3"
    assert str(parse_tableau(text, 3)) == text


def test_parse_tableau_rejects_garbage():
    with pytest.raises(ShapeMismatch):
        parse_tableau("1,x/2", 2)
    with pytest.raises(ShapeMismatch):
        parse_tableau("1/2,2", 2)  # row lengths must weakly decrease


@pytest.mark.parametrize(
    "parts,n",
    [((1,), 1), ((2, 1), 2), ((2, 2), 3), ((3, 1), 3), ((1, 1, 1), 3), ((4, 2), 4)],
)
def test_hook_content_matches_enumeration(parts, n):
    shape = Partition(parts, n)
    assert hook_content_count(shape) == len(enumerate_ssyt(shape))


def test_hook_content_single_box():
    # one box: entries 1..n+1
    assert hook_content_count(Partition((1,), 5)) == 6


@pytest.mark.parametrize("max_n,max_cells", [(5, 6), (6, 8)])
def test_weyl_count_matches_the_hook_content_product(max_n, max_cells):
    pairs = sweep_pairs(max_n, max_cells) + [((), n) for n in range(1, max_n + 1)]
    for parts, n in pairs:
        shape = Partition(parts, n)
        assert hook_content_count(shape) == hook_content_count_by_product(shape)


@pytest.mark.parametrize("parts,n", [
    ((1,), 1000), ((1,) * 500, 1000), ((2, 1), 600), ((3, 3, 2, 2, 1), 400),
    ((4,) * 20 + (1,) * 30, 300),
])
def test_weyl_count_at_high_rank_matches_the_hook_content_product(parts, n):
    shape = Partition(parts, n)
    assert hook_content_count(shape) == hook_content_count_by_product(shape)


def test_weyl_count_of_a_huge_row_is_immediate():
    # a row of k boxes with entries up to n+1: C(k+n, n) fillings
    assert hook_content_count(Partition((3_000_000,), 1)) == 3_000_001
    assert hook_content_count(Partition((3_000_000,), 2)) == math.comb(3_000_002, 2)


@given(st.integers(1, 4), st.data())
def test_enumerated_fillings_all_validate(n, data):
    parts = []
    prev = 3
    for _ in range(data.draw(st.integers(1, min(n, 3)))):
        prev = data.draw(st.integers(1, prev))
        parts.append(prev)
    shape = Partition(tuple(parts), n)
    tabs = enumerate_ssyt(shape)
    assert len(tabs) == hook_content_count(shape)
    for t in tabs[:50]:
        validate_tableau(shape, t.rows)
