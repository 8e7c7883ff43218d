"""Crystal operators on tableaux and full crystal-graph generation.

Everything runs on reading words (entries in reading_cells order). F_i pairs
each i+1 with a later i like parentheses and bumps the rightmost unmatched i
to i+1 (Bump-Schilling, Crystal Bases, Ch. 2-3); one pass finds that letter
for every color, since a letter a opens a bracket for color a-1 and closes
one for color a. E_i is F_{n+1-i} on the reversed word with letters a ->
n+2-a. The crystal graph is the breadth-first closure of the highest-weight
word under all F_i, ids in discovery order, each vertex stored as its word's
code: letter a at position p adds a << s*p, s the bit length of n+1, so F_i
at p adds 1 << s*p. The word ends with the top row, weakly increasing, so
its i's precede its i+1's: if the lower rows leave d brackets of color i
open, the top row has an unmatched i exactly when it holds more than d i's,
and F_i bumps its last i; otherwise F_i bumps the lower rows' own target. So
the search memoizes the lower rows' signature by the code's low bits, and a
vertex takes its top row's block ends from the edge that finds it: a top-row
bump of color i ends block i one cell earlier, a lower-rows bump keeps them.
An image differs from its source in one cell, so each image is checked once,
when its code is first found, against that cell's right and lower neighbours
read from the code, and validate_tableau raises any error. Generation fills
only codes and succ, a tuple per vertex made as it is read (pred waits for its
first read), and no output builds a Tableau. Outputs for one vertex format
graph.rows(v), code v decoded and cut by tableaux.row_slices. Whole-graph
outputs (json_blocks, dot_blocks) come a block of BLOCK vertex ids at a time,
vertex blocks then edge blocks, each one "".join of fixed strings, id strings
and row texts: text_columns formats each distinct top row and lower-rows code
once (the search's split), and an edge line is its source's head, built once
per source, str of its destination, made as the edge is reached, and its
color's tail. A caller that writes each block as it comes holds the row memos
and one block's strings, never a string for every vertex or edge of the graph.
to_json and to_dot join the blocks.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from functools import cache, cached_property
from itertools import chain, count, repeat
from typing import Iterator, Optional

from .tableaux import (
    Partition, Tableau, dual_shape, highest_weight_tableau, hook_content_count,
    reading_cells, reading_word, row_slices, validate_tableau,
)
from .values import Frozen

DEFAULT_VERTEX_CAP = 2_000_000
CAP_ENV_VAR = "CRYSTAL_POP_CAP"


class SizeLimitExceeded(RuntimeError):
    pass


class IsomorphismFailure(RuntimeError):
    """The forced colored-digraph matching broke; indicates a bug."""


def default_cap(cap: Optional[int] = None) -> int:
    """cap, or if None CRYSTAL_POP_CAP's value; ValueError unless an int >= 0."""
    if cap is None:
        text = os.environ.get(CAP_ENV_VAR, str(DEFAULT_VERTEX_CAP))
        try:
            cap = int(text)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {text!r}") from None
    if cap < 0:
        raise ValueError(f"cap must be at least 0, got {cap}")
    return cap


def _brackets(word, n: int) -> tuple[list[int], list[Optional[int]]]:
    """The signature rule for all colors i in [1, n+1] at once: targets[i]
    is the position of the letter F_i bumps in a reading word, or None if
    F_i is zero, and depth[i] counts the i+1's left unmatched."""
    depth = [0] * (n + 2)
    targets: list[Optional[int]] = [None] * (n + 2)
    for p, a in enumerate(word):
        depth[a - 1] += 1
        if depth[a]:
            depth[a] -= 1
        else:
            targets[a] = p
    return depth, targets


def lowering_F(t: Tableau, i: int) -> Optional[Tableau]:
    """F_i: bump the rightmost unmatched i to i+1, or None if F_i(t) = 0."""
    n = t.shape.n
    p = _brackets(reading_word(t), n)[1][i] if 1 <= i <= n + 1 else None
    return None if p is None else t.with_entry(*reading_cells(t.shape)[p], i + 1)


def raising_E(t: Tableau, i: int) -> Optional[Tableau]:
    """E_i: drop the leftmost unmatched i+1 to i, or None if E_i(t) = 0."""
    n = t.shape.n
    mirrored = [n + 2 - a for a in reversed(reading_word(t))]
    p = _brackets(mirrored, n)[1][n + 1 - i] if 0 <= i <= n else None
    return None if p is None else t.with_entry(*reading_cells(t.shape)[-1 - p], i)


def _encode(word, width: int) -> int:
    """A reading word's code: letter a at position p adds a << width*p."""
    return sum(a << width * p for p, a in enumerate(word))


def _decode(code: int, width: int, size: int) -> tuple[int, ...]:
    """The first size letters of a code, width bits each."""
    mask = (1 << width) - 1
    return tuple([code >> s & mask for s in range(0, width * size, width)])


class CrystalGraph:
    """Edge-colored DAG over the tableaux of one shape, each stored as its
    reading word's code; generation gives each vertex its top-row block ends
    from the edge that finds it and drops them with its level (see the module
    docstring). succ[v][i-1] is the id of F_i(vertex v) or None, pred the E_i
    counterpart; rows are tuples, which CPython's collector untracks. Ids are
    breadth-first order from vertex 0, the highest-weight tableau, and each
    edge adds one to the entry sum: vertex 0 is the minimum, every predecessor
    has a smaller id (ids are a topological order) and the edges are exactly
    the covers. While crystal_levels runs, succ holds rows only below the
    newest level; pred and crystalpop.pop's memo, sized to succ, must wait."""

    def __init__(self, shape: Partition, codes: list[int], succ: list[tuple[Optional[int], ...]]):
        self.shape, self.codes, self.succ = shape, codes, succ

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def num_vertices(self) -> int:
        return len(self.codes)

    @cached_property
    def pred(self) -> list[tuple[Optional[int], ...]]:
        """The E_i table from succ on first read (E_i inverts F_i), ids as succ's ints."""
        pred = list(map(list.copy, repeat([None] * self.n, len(self.succ))))
        ids = [0] * len(self.succ)  # id w's int object, stored before row w is read
        for v, row in zip(ids, self.succ):
            pred[v] = tuple(pred[v])  # final: its predecessors have smaller ids
            i = 0
            for w in row:
                if w is not None:
                    pred[w][i] = v
                    ids[w] = w
                i += 1
        return pred

    def rows(self, v: int) -> tuple[tuple[int, ...], ...]:
        """The rows of vertex v's tableau, top row first: its code decoded and cut."""
        word = _decode(self.codes[v], (self.n + 1).bit_length(), sum(self.shape.parts))
        return tuple(map(word.__getitem__, row_slices(self.shape)))

    def tableau(self, v: int) -> Tableau:
        return Tableau(self.shape, self.rows(v))

    def vertex_id(self, t: Tableau) -> int:
        return self.codes.index(_encode(reading_word(t), (self.n + 1).bit_length()))

    def edges(self):
        """(src, dst, color) triples in id order."""
        for v, row in enumerate(self.succ):
            for c, w in enumerate(row, start=1):
                if w is not None:
                    yield v, w, c


def crystal_levels(shape: Partition, cap: Optional[int] = None) -> Iterator[CrystalGraph]:
    """Breadth-first closure of the highest-weight tableau under all F_i, as
    the module docstring sets out. F_i adds 1 to the letter sum, so the images
    of one level are the next level: ids holds the codes of the level being
    found, level those being read and tops their top-row block ends. A new
    image is checked where ids first meets it: its source was checked when it
    was found (the start is taken as valid), so only the bumped cell can break a row or
    a column, and a bad image fails at the first edge that reaches it. Yields
    the one growing graph as each level is found, with the rows below it."""
    cap = default_cap(cap)
    n = shape.n
    over_cap = f"crystal for {shape.parts} at n={n} exceeds cap {cap}"
    if hook_content_count(shape) > cap:
        raise SizeLimitExceeded(over_cap)
    cells = reading_cells(shape)
    end = len(cells)
    position = {cell: p for p, cell in enumerate(cells)}
    width = (n + 1).bit_length()
    right = [width * position.get((i, j + 1), end) for i, j in cells]
    below = [width * position.get((i + 1, j), end) for i, j in cells]
    letter = (1 << width) - 1
    shift = [1 << width * p for p in range(end)]
    low = end - shape.part(1)
    mask = (1 << width * low) - 1
    word = reading_word(highest_weight_tableau(shape))
    codes = [_encode(word, width)]
    level = {codes[0]: 0}
    tops = [[bisect_right(word, a, low) for a in range(n + 1)]]
    lower: dict[int, tuple] = {}  # lower rows: (i, depth[i], targets[i]), i = 1..n
    succ: list[tuple[Optional[int], ...]] = []
    colors, blank = range(1, n + 1), [None] * n
    graph = CrystalGraph(shape=shape, codes=codes, succ=succ)
    while level:
        yield graph
        ids: dict[int, int] = {}
        found = []
        for code, ends in zip(level, tops):  # in id order, so row len(succ) is code's
            if (memo := lower.get(code & mask)) is None:
                depth, targets = _brackets(_decode(code, width, low), n)
                memo = lower[code & mask] = tuple(zip(colors, depth[1:-1], targets[1:-1]))
            row = blank.copy()
            for i, d, p in memo:
                if (stop := ends[i]) - ends[i - 1] > d:
                    p = stop - 1
                elif p is None:
                    continue
                img = code + shift[p]
                if (w := ids.get(img)) is None:
                    # The new i+1 at p against its right and lower neighbours, read
                    # at their bit offsets; a missing one reads 0, below every letter.
                    if 0 < img >> right[p] & letter <= i or 0 < img >> below[p] & letter <= i + 1:
                        bad = _decode(img, width, end)
                        validate_tableau(shape, map(bad.__getitem__, row_slices(shape)))
                        raise RuntimeError(f"bump of letter {p} into {bad} passed validate_tableau")
                    w = len(codes)
                    if w >= cap:
                        raise SizeLimitExceeded(over_cap)
                    ids[img] = w
                    codes.append(img)
                    if p < low:
                        found.append(ends)
                    else:
                        found.append(top := ends.copy())
                        top[i] = p
                row[i - 1] = w
            succ.append(tuple(row))
        level, tops = ids, found


def generate_crystal(shape: Partition, cap: Optional[int] = None) -> CrystalGraph:
    """The whole crystal graph: crystal_levels drained."""
    *_, graph = crystal_levels(shape, cap)
    return graph


class DualCrystal(Frozen):
    """The dual crystal together with the forced vertex bijection from the
    original graph (to_dual[v] is the dual id of vertex v)."""

    def __init__(self, graph: CrystalGraph, to_dual: tuple[int, ...]):
        vars(self).update(graph=graph, to_dual=to_dual)

    def from_dual(self) -> tuple[int, ...]:
        inv = [0] * len(self.to_dual)
        for v, w in enumerate(self.to_dual):
            inv[w] = v
        return tuple(inv)


def dual_crystal(graph: CrystalGraph) -> DualCrystal:
    """Relabel color i as n+1-i and recognize the result as the crystal of
    the dual shape via deterministic simultaneous BFS from the two sources.
    Each vertex has at most one successor per color, so the isomorphism is
    forced; any mismatch raises IsomorphismFailure."""
    n = graph.n
    dual = generate_crystal(dual_shape(graph.shape))
    if dual.num_vertices != graph.num_vertices:
        raise IsomorphismFailure(f"dual vertex count {dual.num_vertices} != {graph.num_vertices}")
    mapping: list[Optional[int]] = [None] * graph.num_vertices
    mapping[0] = 0
    queue = [0]
    for v in queue:  # the loop reads what it appends
        for i in range(1, n + 1):
            w = graph.succ[v][i - 1]
            img = dual.succ[mapping[v]][n - i]  # color i becomes n+1-i
            if (w is None) != (img is None):
                raise IsomorphismFailure(f"edge mismatch at vertex {v}, color {i}")
            if w is None:
                continue
            if mapping[w] is None:
                mapping[w] = img
                queue.append(w)
            elif mapping[w] != img:
                raise IsomorphismFailure(f"inconsistent image for vertex {w}")
    if any(m is None for m in mapping) or len(set(mapping)) != len(mapping):
        raise IsomorphismFailure("matching is not a bijection")
    return DualCrystal(graph=dual, to_dual=tuple(mapping))  # type: ignore[arg-type]


def weyl_reflect(graph: CrystalGraph, v: int, i: int) -> int:
    """Reverse the maximal i-colored chain through v: if v sits at position
    j from the bottom of an m-chain, return the vertex at position m+1-j."""
    pred, succ = graph.pred, graph.succ
    chain = [v]
    while (w := pred[chain[-1]][i - 1]) is not None:
        chain.append(w)
    chain.reverse()
    while (w := succ[chain[-1]][i - 1]) is not None:
        chain.append(w)
    return chain[-1 - chain.index(v)]


def stabilizer_colors(shape: Partition) -> frozenset[int]:
    """Colors i with equal adjacent parts (zero-padded), generating the
    stabilizer of the weight."""
    return frozenset(i for i in range(1, shape.n + 1) if shape.part(i) == shape.part(i + 1))


BLOCK = 1024  # vertex ids per block of a whole-graph output


def text_columns(graph: CrystalGraph) -> Iterator[tuple[Iterator[str], Iterator[str]]]:
    """The texts of each block of BLOCK ids as two columns, the top rows and
    the rest ("/" before each lower row): format_rows(graph.rows(v)) is the
    two joined. Each distinct top row and lower-rows code is formatted once."""
    shape, codes = graph.shape, graph.codes
    width = (graph.n + 1).bit_length()
    low = sum(shape.parts) - shape.part(1)
    shift, mask, lower_rows = width * low, (1 << width * low) - 1, row_slices(shape)[1:]

    @cache
    def top(code: int) -> str:
        return ",".join(map(str, _decode(code, width, shape.part(1))))

    @cache
    def lower(code: int) -> str:
        word = _decode(code, width, low)
        return "".join(["/" + ",".join(map(str, word[row])) for row in lower_rows])

    for start in range(0, len(codes), BLOCK):
        block = codes[start:start + BLOCK]
        yield map(top, map(shift.__rrshift__, block)), map(lower, map(mask.__and__, block))


def vertex_blocks(graph: CrystalGraph, pre: str, mid: str, post: str) -> Iterator[str]:
    """pre + str(v) + mid + text + post for every vertex v and its text,
    joined a block of BLOCK ids at a time."""
    for start, (tops, lowers) in zip(count(0, BLOCK), text_columns(graph)):
        ids = map(str, count(start))
        yield "".join(chain.from_iterable(
            zip(repeat(pre), ids, repeat(mid), tops, lowers, repeat(post))))


def edge_blocks(graph: CrystalGraph, pre: str, mid: str, tails: list[str]) -> Iterator[str]:
    """pre + str(v) + mid + str(w) + tails[i - 1] for every edge w = F_i(v) in
    id order, joined a block of BLOCK source ids at a time ("" if it has no
    edge); a source's head pre + str(v) + mid is built once."""
    succ = graph.succ
    for start in range(0, len(succ), BLOCK):
        items: list[str] = []
        add = items.append
        for v, row in enumerate(succ[start:start + BLOCK], start):
            head = pre + str(v) + mid
            for w, tail in zip(row, tails):
                if w is not None:
                    add(head)
                    add(str(w))
                    add(tail)
        yield "".join(items)


def _json_array(blocks) -> Iterator[str]:
    """blocks, whose items each begin with a comma, as an array one level
    deep in the json.dumps(indent=2) layout: "[]" if they hold no item."""
    first = True
    for block in blocks:
        if block:
            yield "[" + block[1:] if first else block
            first = False
    yield "[]" if first else "\n  ]"


_JSON_VERTEX = ',\n    {\n      "id": ', ',\n      "rows": "', '"\n    }'
_JSON_EDGE = ',\n    {\n      "src": ', ',\n      "dst": '


def json_blocks(graph: CrystalGraph) -> Iterator[str]:
    """to_json(graph), a block of BLOCK vertex ids at a time."""
    parts = "".join(_json_array([f",\n    {p}" for p in graph.shape.parts]))
    yield f'{{\n  "lambda": {parts},\n  "n": {graph.n},\n  "vertices": '
    yield from _json_array(vertex_blocks(graph, *_JSON_VERTEX))
    yield ',\n  "edges": '
    tails = [f',\n      "color": {c}\n    }}' for c in range(1, graph.n + 1)]
    yield from _json_array(edge_blocks(graph, *_JSON_EDGE, tails))
    yield "\n}"


def to_json(graph: CrystalGraph) -> str:
    """{"lambda", "n", "vertices": [{"id", "rows"}], "edges": [{"src", "dst",
    "color"}]} in the json.dumps(indent=2) layout. A vertex text holds only
    digits, ',' and '/', so it is written between quotes as it is."""
    return "".join(json_blocks(graph))


_DOT_PALETTE = ["red", "blue", "green3", "orange", "purple", "brown", "cyan3", "magenta"]


def dot_blocks(graph: CrystalGraph) -> Iterator[str]:
    """to_dot(graph), a block of BLOCK vertex ids at a time."""
    tails = [f' [label="F{c}", color={_DOT_PALETTE[(c - 1) % len(_DOT_PALETTE)]}];\n'
             for c in range(1, graph.n + 1)]
    yield "digraph crystal {\n  rankdir=BT;\n"
    yield from vertex_blocks(graph, "  v", ' [label="', '"];\n')
    yield from edge_blocks(graph, "  v", " -> v", tails)
    yield "}\n"


def to_dot(graph: CrystalGraph) -> str:
    return "".join(dot_blocks(graph))
