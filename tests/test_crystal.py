import json

import pytest

from crystalpop import crystal
from crystalpop.classifier import sweep_pairs
from crystalpop.crystal import (
    CAP_ENV_VAR,
    SizeLimitExceeded,
    default_cap,
    dual_crystal,
    embed_parabolic_quotient,
    generate_crystal,
    lowering_F,
    raising_E,
    stabilizer_colors,
    to_dot,
    to_json,
    weyl_reflect,
)
from crystalpop.perm import length, parabolic_quotient
from crystalpop.tableaux import (
    Partition,
    Tableau,
    TableauError,
    format_tableau,
    hook_content_count,
    parse_tableau,
    reading_cells,
    reading_word,
    validate_tableau,
    weight,
)
from oracles import (
    enumerate_ssyt,
    generate_crystal_by_tableaux,
    levi_restrict,
    lowering_by_cells,
    raising_by_cells,
)

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((2, 2), 3), ((3, 1), 3),
    ((1, 1, 1), 3), ((2, 1), 3), ((3, 2, 1), 3),
]


def test_lowering_example():
    t = parse_tableau("1,1,2,2,3/3,3", 3)
    assert format_tableau(lowering_F(t, 1)) == "1,2,2,2,3/3,3"
    assert lowering_F(t, 2) is None


def _outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except TableauError as exc:
        return type(exc), str(exc)


def test_operators_match_cell_scans():
    for parts, n in SHAPES:
        for t in enumerate_ssyt(Partition(parts, n)):
            for i in range(-1, n + 3):
                assert _outcome(lowering_F, t, i) == _outcome(lowering_by_cells, t, i)
                assert _outcome(raising_E, t, i) == _outcome(raising_by_cells, t, i)


@pytest.mark.parametrize(
    "parts,n", sweep_pairs(4, 7) + [((5, 3, 1), 4)], ids=lambda x: str(x)
)
def test_word_bfs_matches_tableau_bfs(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    ref = generate_crystal_by_tableaux(shape)
    assert graph.vertices == ref.vertices
    assert graph.succ == ref.succ
    assert graph.pred == ref.pred
    assert list(graph.index.items()) == list(ref.index.items())
    assert all(validate_tableau(shape, t.rows) == t for t in graph.vertices)


def test_bump_check_raises_what_validate_raises():
    for parts, n in SHAPES:
        shape = Partition(parts, n)
        cells = reading_cells(shape)
        position = {cell: p for p, cell in enumerate(cells)}
        right = [position.get((i, j + 1)) for i, j in cells]
        below = [position.get((i + 1, j)) for i, j in cells]
        for t in enumerate_ssyt(shape):
            word = reading_word(t)
            for p, cell in enumerate(cells):
                for value in range(word[p] + 1, n + 3):
                    want = _outcome(t.with_entry, *cell, value)
                    got = _outcome(
                        crystal._check_bump, cells, p, value, word, right, below, n + 1
                    )
                    assert got == (None if isinstance(want, Tableau) else want)


def test_raising_inverts_lowering():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for t in graph.vertices:
            for i in range(1, n + 1):
                img = lowering_F(t, i)
                if img is not None:
                    assert raising_E(img, i) == t
                img = raising_E(t, i)
                if img is not None:
                    assert lowering_F(img, i) == t


def test_operators_shift_weight_by_one():
    graph = generate_crystal(Partition((2, 2), 3))
    for t in graph.vertices:
        for i in range(1, 4):
            img = lowering_F(t, i)
            if img is None:
                continue
            wa, wb = weight(t), weight(img)
            assert wb[i - 1] == wa[i - 1] - 1 and wb[i] == wa[i] + 1


@pytest.mark.parametrize("parts,n", SHAPES)
def test_vertex_count_matches_oracles(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert graph.num_vertices == hook_content_count(shape)
    assert {format_tableau(t) for t in graph.vertices} == {
        format_tableau(t) for t in enumerate_ssyt(shape)
    }


def test_figure_structure_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    assert graph.num_vertices == 8
    assert format_tableau(graph.vertices[0]) == "1,1/2"
    assert sorted(graph.edges()) == [
        (0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1),
        (3, 5, 2), (4, 6, 1), (5, 7, 1), (6, 7, 2),
    ]
    assert graph.max_vertex() == 7


def test_single_box_chain():
    graph = generate_crystal(Partition((1,), 1))
    assert graph.num_vertices == 2
    assert list(graph.edges()) == [(0, 1, 1)]


def test_cap_enforced(monkeypatch):
    with pytest.raises(SizeLimitExceeded):
        generate_crystal(Partition((3, 1), 3), cap=10)
    monkeypatch.setenv(CAP_ENV_VAR, "7")
    assert default_cap() == 7
    with pytest.raises(SizeLimitExceeded):
        generate_crystal(Partition((3, 1), 3))


def test_cap_checked_before_generation(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")

    monkeypatch.setattr(crystal, "_lowering_targets", no_search)
    monkeypatch.setattr(crystal, "highest_weight_tableau", no_search)
    shape = Partition((6, 4, 2), 5)
    assert hook_content_count(shape) == 62_370
    with pytest.raises(SizeLimitExceeded, match=r"crystal for \(6, 4, 2\) at n=5 exceeds cap 1000"):
        generate_crystal(shape, cap=1000)
    monkeypatch.undo()
    assert generate_crystal(Partition((3, 1), 3), cap=45).num_vertices == 45
    with pytest.raises(SizeLimitExceeded):
        generate_crystal(Partition((3, 1), 3), cap=44)


def test_levi_restrict_filters_colors():
    graph = generate_crystal(Partition((2, 1), 2))
    view = levi_restrict(graph, {1})
    assert sorted((w, c) for w, c in view.succ_edges(0)) == [(1, 1)]
    assert list(view.succ_edges(1)) == []
    with pytest.raises(ValueError):
        levi_restrict(graph, {3})


def test_dual_crystal_bijection():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        dual = dual_crystal(graph)
        back = dual.from_dual()
        assert sorted(dual.to_dual) == list(range(graph.num_vertices))
        # color i edges map to color n+1-i edges
        for src, dst, c in graph.edges():
            assert dual.graph.succ[dual.to_dual[src]][n - c] == dual.to_dual[dst]
        assert all(back[dual.to_dual[v]] == v for v in range(graph.num_vertices))


def test_weyl_reflect_involution():
    graph = generate_crystal(Partition((2, 1), 2))
    for v in range(graph.num_vertices):
        for i in (1, 2):
            assert weyl_reflect(graph, weyl_reflect(graph, v, i), i) == v


def test_stabilizer_colors():
    assert stabilizer_colors(Partition((2, 2), 3)) == frozenset({1, 3})
    assert stabilizer_colors(Partition((2, 1), 2)) == frozenset()
    assert stabilizer_colors(Partition((1, 1), 3)) == frozenset({1, 3})


def test_embedding_is_injective_and_order_preserving():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        embedding = embed_parabolic_quotient(graph)
        kset = stabilizer_colors(graph.shape)
        assert set(embedding) == set(parabolic_quotient(kset, n + 1))
        assert len(set(embedding.values())) == len(embedding)
        assert embedding[min(embedding, key=length)] == 0


def test_embedded_orbit_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    embedding = embed_parabolic_quotient(graph)
    assert sorted(embedding.values()) == [0, 1, 2, 5, 6, 7]


def test_json_export_schema():
    graph = generate_crystal(Partition((2, 1), 2))
    payload = json.loads(to_json(graph))
    assert payload["lambda"] == [2, 1] and payload["n"] == 2
    assert len(payload["vertices"]) == 8 and len(payload["edges"]) == 8
    assert payload["vertices"][0] == {"id": 0, "rows": "1,1/2"}
    assert payload["edges"][0] == {"src": 0, "dst": 1, "color": 1}


def test_dot_export_deterministic():
    graph = generate_crystal(Partition((2, 1), 2))
    dot = to_dot(graph)
    assert dot == to_dot(graph)
    assert dot.count("->") == 8
    assert 'label="1,1/2"' in dot
