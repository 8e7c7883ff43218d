import json
import tracemalloc

import pytest

from crystalpop import crystal
from crystalpop.classifier import sweep_pairs
from crystalpop.crystal import (
    CAP_ENV_VAR,
    SizeLimitExceeded,
    crystal_levels,
    default_cap,
    dual_crystal,
    edge_blocks,
    generate_crystal,
    json_blocks,
    lowering_F,
    raising_E,
    stabilizer_colors,
    text_columns,
    to_dot,
    to_json,
    vertex_blocks,
    weyl_reflect,
)
from crystalpop.key import build_demazure_family
from crystalpop.poset import ReachabilityIndex, is_lattice
from crystalpop.tableaux import (
    ColumnViolation,
    Partition,
    RowViolation,
    Tableau,
    TableauError,
    format_rows,
    hook_content_count,
    parse_tableau,
    validate_tableau,
)
import oracles
from oracles import (
    edge_blocks_by_templates,
    enumerate_ssyt,
    generate_crystal_by_tableaux,
    generate_crystal_by_words,
    graph_words,
    length,
    levi_restrict,
    lowering_by_cells,
    parabolic_quotient_by_filter,
    raising_by_cells,
    texts_by_row_memos,
    to_dot_by_format_rows,
    to_json_by_dumps,
    unique_sink,
    vertex_blocks_by_templates,
    weight,
)

SHAPES = [
    ((1,), 1), ((2, 1), 2), ((2, 2), 3), ((3, 1), 3),
    ((1, 1, 1), 3), ((2, 1), 3), ((3, 2, 1), 3),
]


def test_lowering_example():
    t = parse_tableau("1,1,2,2,3/3,3", 3)
    assert str(lowering_F(t, 1)) == "1,2,2,2,3/3,3"
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


# sweep_pairs(4, 7) holds one row ((7,) n=3: no lower rows), one column
# ((1, 1, 1, 1) n=4: a top row of one cell) and (2,) n=1 and (2, 1) n=3,
# whose letters take 2 and 3 bits; the empty shape and (2, 1) at n=7 and
# n=8 (4-bit letters, n+1 a power of two and one past it) are added.
@pytest.mark.parametrize(
    "parts,n",
    sweep_pairs(4, 7) + [((5, 3, 1), 4), ((), 1), ((2, 1), 7), ((2, 1), 8)],
    ids=lambda x: str(x),
)
def test_word_bfs_matches_tableau_bfs(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    vertices, succ, pred = generate_crystal_by_tableaux(shape)
    tableaux = [graph.tableau(v) for v in range(graph.num_vertices)]
    assert tableaux == vertices
    assert graph.succ == succ
    assert graph.pred == pred
    assert all(graph.vertex_id(t) == v for v, t in enumerate(tableaux))
    assert all(validate_tableau(shape, t.rows) == t for t in tableaux)


# sweep_pairs(5, 6) is mostly one-row and one-column shapes, where nearly
# every vertex has a top row (or a lower part) no earlier vertex had.
@pytest.mark.parametrize(
    "parts,n", sweep_pairs(5, 6) + [((5, 3, 1), 5), ((4, 4), 5), ((6, 4, 2), 4), ((12,), 5)],
    ids=lambda x: str(x),
)
def test_code_bfs_matches_word_bfs(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert (graph_words(graph), graph.succ, graph.pred) == generate_crystal_by_words(shape)


def test_generation_decodes_one_word_per_lower_rows_memo_miss(monkeypatch):
    # (12,) at n=5 has no lower rows, so its 6,188 vertices share one memo
    # entry; each top row's blocks come from the edge that finds it.
    decode, decoded = crystal._decode, []
    monkeypatch.setattr(crystal, "_decode", lambda *args: decoded.append(args) or decode(*args))
    for parts, n, misses in [((12,), 5, 1), ((5, 3, 1), 4, None), ((1, 1, 1, 1), 5, None)]:
        decoded.clear()
        graph = generate_crystal(Partition(parts, n))
        count, low = len(decoded), sum(parts[1:])
        if misses is None:
            misses = len({word[:low] for word in graph_words(graph)})
        assert 1 <= count <= misses, (parts, n)


@pytest.mark.parametrize("parts,n", [((5, 3, 1), 5), ((3, 2, 1), 3), ((1,), 1), ((), 2)],
                         ids=lambda x: str(x))
def test_level_generator_yields_each_bfs_level_and_drains_to_word_bfs(parts, n):
    shape = Partition(parts, n)
    words, succ, pred = generate_crystal_by_words(shape)
    starts = []
    for graph in crystal_levels(shape):
        start = starts[-1] if starts else 0
        starts.append(graph.num_vertices)
        assert graph.succ[:start] == succ[:start]  # the rows below the newest level
        newest = graph_words(graph)[start:]
        assert newest == words[start:graph.num_vertices] and len(set(map(sum, newest))) == 1
        assert sum(newest[0]) == sum(words[0]) + len(starts) - 1
    assert (graph_words(graph), graph.succ, graph.pred) == (words, succ, pred)
    assert starts[-1] == len(words)


def test_bump_check_guards_a_start_that_breaks_a_column(monkeypatch):
    # Column 1 of the first start holds 2 over 2. F_2 bumps (1, 2) and then
    # (1, 1) to 3, and only the second bump leaves a column of 3 over 2.
    # The second start breaks a row below the top one: row 2 holds 3 before
    # 1, and F_3 bumps that 3 to 4. Each image breaks only the bumped cell's
    # neighbour, so validate_tableau names that cell.
    cases = [
        (Partition((2, 1), 2), ((2, 2), (2,)), ((3, 3), (2,)), ColumnViolation,
         "column violation at (2, 1): 3 >= 2", (2, 1)),
        (Partition((2, 2), 3), ((1, 2), (3, 1)), ((1, 2), (4, 1)), RowViolation,
         "row violation at (2, 2): 4 > 1", (2, 2)),
    ]
    for shape, rows, image, error, text, cell in cases:
        start = Tableau(shape, rows)
        with pytest.raises(error) as want:
            validate_tableau(shape, image)
        for module in (crystal, oracles):
            monkeypatch.setattr(module, "highest_weight_tableau", lambda s: start)
        for generate in (generate_crystal, generate_crystal_by_words):
            with pytest.raises(error) as got:
                generate(shape)
            assert str(got.value) == str(want.value) == text
            assert got.value.cell == cell


def test_generation_index_lattice_verdict_and_exports_leave_pred_unbuilt():
    for parts, n in [((2, 1), 2), ((3, 2, 1), 3)]:
        graph = generate_crystal(Partition(parts, n))
        index = ReachabilityIndex(graph)
        assert is_lattice(graph, index).is_lattice
        assert is_lattice(graph).is_lattice
        to_json(graph)
        to_dot(graph)
        column_texts(graph)
        list(graph.edges())
        assert "pred" not in vars(graph)
        top = graph.num_vertices - 1
        assert index.down[top] == (1 << graph.num_vertices) - 1
        assert "pred" not in vars(graph)
        assert graph.pred == generate_crystal_by_tableaux(graph.shape)[2]


def test_pred_stores_the_id_objects_succ_holds():
    graph = generate_crystal(Partition((5, 3, 1), 4))
    held = {w: w for row in graph.succ for w in row if w is not None}
    stored = [u for row in graph.pred for u in row if u is not None]
    assert max(stored) > 256  # past CPython's cached small ints
    assert all(u is held.get(u, u) for u in stored)


def test_raising_inverts_lowering():
    for parts, n in SHAPES:
        graph = generate_crystal(Partition(parts, n))
        for t in map(graph.tableau, range(graph.num_vertices)):
            for i in range(1, n + 1):
                img = lowering_F(t, i)
                if img is not None:
                    assert raising_E(img, i) == t
                img = raising_E(t, i)
                if img is not None:
                    assert lowering_F(img, i) == t


def test_operators_shift_weight_by_one():
    graph = generate_crystal(Partition((2, 2), 3))
    for t in map(graph.tableau, range(graph.num_vertices)):
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
    assert {str(graph.tableau(v)) for v in range(graph.num_vertices)} == {
        str(t) for t in enumerate_ssyt(shape)
    }


def test_figure_structure_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    assert graph.num_vertices == 8
    assert str(graph.tableau(0)) == "1,1/2"
    assert sorted(graph.edges()) == [
        (0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1),
        (3, 5, 2), (4, 6, 1), (5, 7, 1), (6, 7, 2),
    ]
    assert unique_sink(graph) == 7


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


def test_negative_cap_is_invalid(monkeypatch):
    shape = Partition((1,), 1)
    with pytest.raises(ValueError, match=r"^cap must be at least 0, got -1$"):
        generate_crystal(shape, cap=-1)
    monkeypatch.setenv(CAP_ENV_VAR, "-3")
    with pytest.raises(ValueError, match=r"^cap must be at least 0, got -3$"):
        generate_crystal(shape)
    with pytest.raises(SizeLimitExceeded, match=r"exceeds cap 0$"):
        generate_crystal(shape, cap=0)


def test_cap_checked_before_generation(monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")

    for step in ("reading_cells", "highest_weight_tableau", "_brackets"):
        monkeypatch.setattr(crystal, step, no_search)
    shape = Partition((6, 4, 2), 5)
    assert hook_content_count(shape) == 62_370
    with pytest.raises(SizeLimitExceeded, match=r"crystal for \(6, 4, 2\) at n=5 exceeds cap 1000"):
        generate_crystal(shape, cap=1000)
    monkeypatch.undo()
    assert generate_crystal(Partition((3, 1), 3), cap=45).num_vertices == 45
    with pytest.raises(SizeLimitExceeded):
        generate_crystal(Partition((3, 1), 3), cap=44)


def test_cap_raises_mid_search(monkeypatch):
    shape = Partition((5, 3, 1), 4)
    size = hook_content_count(shape)
    monkeypatch.setattr(crystal, "hook_content_count", lambda s: 0)
    assert generate_crystal(shape, cap=size).num_vertices == size
    message = rf"crystal for \(5, 3, 1\) at n=4 exceeds cap {size - 1}$"
    with pytest.raises(SizeLimitExceeded, match=message):
        generate_crystal(shape, cap=size - 1)


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
        embedding = build_demazure_family(graph).extremal
        kset = stabilizer_colors(graph.shape)
        assert set(embedding) == set(parabolic_quotient_by_filter(kset, n + 1))
        assert len(set(embedding.values())) == len(embedding)
        assert embedding[min(embedding, key=length)] == 0


def test_embedded_orbit_two_one():
    graph = generate_crystal(Partition((2, 1), 2))
    embedding = build_demazure_family(graph).extremal
    assert sorted(embedding.values()) == [0, 1, 2, 5, 6, 7]


def test_json_export_schema():
    graph = generate_crystal(Partition((2, 1), 2))
    payload = json.loads(to_json(graph))
    assert payload["lambda"] == [2, 1] and payload["n"] == 2
    assert len(payload["vertices"]) == 8 and len(payload["edges"]) == 8
    assert payload["vertices"][0] == {"id": 0, "rows": "1,1/2"}
    assert payload["edges"][0] == {"src": 0, "dst": 1, "color": 1}


def test_json_export_matches_dumps_reference():
    pairs = sweep_pairs(4, 7) + [((5, 3, 1), 4), ((), 1), ((2, 1), 9)]
    for parts, n in pairs:
        graph = generate_crystal(Partition(parts, n))
        assert to_json(graph) == to_json_by_dumps(graph), (parts, n)
    empty = to_json(generate_crystal(Partition((), 1)))
    assert '"lambda": []' in empty and '"edges": []' in empty


# Whole-graph outputs are checked on these crystals at each of these block
# sizes: a block per vertex, a block edge after every third, and the default.
EXPORT_PAIRS = sweep_pairs(4, 7) + [((), 1), ((1,), 1), ((2, 1), 9)]
BLOCKS = [1, 3, crystal.BLOCK]

# The vertex and edge lines of the json, dot, text and csv exports, as the
# (pre, mid, post) or (pre, mid) strings around the ids and texts.
VERTEX_LINES = [crystal._JSON_VERTEX, ("  v", ' [label="', '"];\n'), ("  ", ": ", "\n")]
EDGE_LINES = [(crystal._JSON_EDGE, ",\n      \"color\": {}\n    }}"),
              (("  v", " -> v"), ' [label="F{}", color=red];\n'),
              (("  ", " -> "), " (F{})\n"), (("", ","), ",{}\r\n")]


def column_texts(graph) -> list[str]:
    """Every vertex's text, read from text_columns."""
    return [top + lower for tops, lowers in text_columns(graph) for top, lower in zip(tops, lowers)]


def test_exports_match_the_references_with_a_block_per_vertex(monkeypatch):
    monkeypatch.setattr(crystal, "BLOCK", 1)
    for parts, n in EXPORT_PAIRS:
        graph = generate_crystal(Partition(parts, n))
        assert len(list(vertex_blocks(graph, "", " ", "\n"))) == graph.num_vertices
        assert to_json(graph) == to_json_by_dumps(graph), (parts, n)
        assert to_dot(graph) == to_dot_by_format_rows(graph), (parts, n)


@pytest.mark.parametrize("block", BLOCKS)
def test_line_blocks_match_the_template_references(monkeypatch, block):
    monkeypatch.setattr(crystal, "BLOCK", block)
    reach = 0  # the most block edges an edge crosses: past 1, it skips a whole block
    for parts, n in EXPORT_PAIRS:
        graph = generate_crystal(Partition(parts, n))
        reach = max([reach] + [w // block - v // block for v, w, _ in graph.edges()])
        for pre, mid, post in VERTEX_LINES:
            assert list(vertex_blocks(graph, pre, mid, post)) == list(
                vertex_blocks_by_templates(graph, f"{pre}%d{mid}%s{post}")), (parts, n)
        for (pre, mid), tail in EDGE_LINES:
            tails = [tail.format(c) for c in range(1, n + 1)]
            assert list(edge_blocks(graph, pre, mid, tails)) == list(
                edge_blocks_by_templates(graph, f"{pre}%d{mid}", tails)), (parts, n)
    assert reach > 1 or block == BLOCKS[-1]


@pytest.fixture(scope="module")
def rank_five_graph():
    return generate_crystal(Partition((6, 4, 2), 5))


def traced_peak(blocks) -> tuple[int, int]:
    """The characters in blocks and tracemalloc's peak bytes while they are built."""
    tracemalloc.start()
    try:
        return sum(map(len, blocks)), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_json_blocks_hold_less_than_the_document():
    # Built as one list of item strings, the 3.03 MB document took a
    # 10.9 MB peak; block by block, the row memos and a few blocks.
    graph = generate_crystal(Partition((5, 3, 1), 5))
    size, peak = traced_peak(json_blocks(graph))
    assert size == 3_033_874
    assert peak < size


@pytest.mark.slow
def test_json_blocks_hold_no_text_per_vertex(rank_five_graph):
    # 62,370 vertices: 6.52 MB with every vertex's text in one list (4.99 MB
    # of it), about 1.0 MB with the row memos and one block's strings.
    size, peak = traced_peak(json_blocks(rank_five_graph))
    assert size == 18_566_654
    assert peak < 2.5e6


@pytest.mark.slow
def test_csv_edge_blocks_hold_no_id_table(rank_five_graph):
    # About 0.40 MB with one block's strings, each destination's id made as
    # its edge is reached; 0.51 MB with a window of id strings from a block's
    # first source to its last destination, 4.06 MB with one for every vertex.
    tails = [f",{c}\r\n" for c in range(1, 6)]
    size, peak = traced_peak(edge_blocks(rank_five_graph, "", ",", tails))
    assert size == 2_964_386
    assert peak < 1e6


def test_texts_match_format_rows(monkeypatch):
    for block in BLOCKS:
        monkeypatch.setattr(crystal, "BLOCK", block)
        for parts, n in EXPORT_PAIRS:
            graph = generate_crystal(Partition(parts, n))
            size = graph.num_vertices
            texts = column_texts(graph)
            assert texts == [format_rows(graph.rows(v)) for v in range(size)], (parts, n, block)
            assert texts == texts_by_row_memos(graph), (parts, n, block)
            assert [len(list(tops)) for tops, _ in text_columns(graph)] == [
                min(block, size - start) for start in range(0, size, block)]
    assert column_texts(generate_crystal(Partition((), 1))) == [""]


def test_dot_export_matches_format_rows_reference():
    for parts, n in sweep_pairs(4, 7) + [((2, 1), 9)]:
        graph = generate_crystal(Partition(parts, n))
        assert to_dot(graph) == to_dot_by_format_rows(graph), (parts, n)


def test_dot_export_deterministic():
    graph = generate_crystal(Partition((2, 1), 2))
    dot = to_dot(graph)
    assert dot == to_dot(graph)
    assert dot.count("->") == 8
    assert 'label="1,1/2"' in dot
