"""Crystal operators on tableaux and full crystal-graph generation.

Everything runs on reading words (entries in reading_cells order). F_i pairs
each i+1 with a later i like parentheses and bumps the rightmost unmatched i
to i+1 (Bump-Schilling, Crystal Bases, Ch. 2-3); one pass finds that letter
for every color, since a letter a opens a bracket for color a-1 and closes
one for color a. E_i is F_{n+1-i} on the reversed word with letters a ->
n+2-a. The crystal graph is the breadth-first closure of the highest-weight
word under all F_i, ids in discovery order, each word keyed by its code:
letter a at position p adds a << s*p, s the bit length of n+1, so F_i at p
adds 1 << s*p. The word ends with the top row, weakly increasing, so its
i's precede its i+1's: if the lower rows leave d brackets of color i open,
the top row has an unmatched i exactly when it holds more than d i's, and
F_i bumps its last i; otherwise F_i bumps the lower rows' own target. So
the search memoizes the lower rows' signature by the code's low bits and
the top row's letter blocks by its high bits. An image differs from its
source in one cell, so a bump is checked against that cell's neighbours, and
validate_tableau raises any error. A lower-rows target and its neighbours
all lie in the lower rows, so it is checked once, when its memo entry is
built, and a bad one is stored as ~p. A top-row target ends its block, so
the entry to its right is larger and only the entry below it is compared,
per edge. Generation fills only words and succ (pred waits for its first
read), and no output builds a Tableau. Full outputs read graph.texts(),
which formats each distinct row once (one memo per tableau row); outputs for
one vertex format graph.rows(v), word v cut by tableaux.row_slices. to_json
writes the json.dumps(indent=2) layout from fixed templates.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Optional

from .tableaux import (
    Partition, Tableau, dual_shape, highest_weight_tableau, hook_content_count,
    reading_cells, reading_word, row_slices, validate_tableau,
)

DEFAULT_VERTEX_CAP = 2_000_000
CAP_ENV_VAR = "CRYSTAL_POP_CAP"


class SizeLimitExceeded(RuntimeError):
    pass


class IsomorphismFailure(RuntimeError):
    """The forced colored-digraph matching broke; indicates a bug."""


def default_cap() -> int:
    return int(os.environ.get(CAP_ENV_VAR, DEFAULT_VERTEX_CAP))


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


@dataclass
class CrystalGraph:
    """Edge-colored DAG over the tableaux of one shape, each stored as its
    reading word. succ[v][i-1] is the id of F_i(vertex v) or None; pred is
    the E_i counterpart. Ids are breadth-first order from vertex 0, the
    highest-weight tableau, and each edge adds one to the entry sum: vertex 0
    is the minimum, every predecessor has a smaller id (ids are a topological
    order) and the edges are exactly the covers."""

    shape: Partition
    words: list[tuple[int, ...]]
    succ: list[list[Optional[int]]]

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def num_vertices(self) -> int:
        return len(self.words)

    @cached_property
    def pred(self) -> list[list[Optional[int]]]:
        """The E_i table, built from succ on first read: E_i inverts F_i."""
        pred = list(map(list.copy, repeat([None] * self.n, len(self.succ))))
        for v, row in enumerate(self.succ):
            i = 0
            for w in row:
                if w is not None:
                    pred[w][i] = v
                i += 1
        return pred

    @cached_property
    def _row_slices(self) -> list[slice]:
        return row_slices(self.shape)

    def rows(self, v: int) -> tuple[tuple[int, ...], ...]:
        """The rows of vertex v's tableau, top row first, cut from its word."""
        return tuple(map(self.words[v].__getitem__, self._row_slices))

    def texts(self) -> list[str]:
        """format_rows(self.rows(v)) for every v, a row slice at a time: each
        distinct row of a slice is formatted once. Each row is dropped as
        soon as it is looked up, so no slice's V rows are alive at once."""
        columns = []
        for cut in self._row_slices:
            memo: dict[tuple[int, ...], str] = {}
            column = []
            for word in self.words:
                row = word[cut]
                if row not in memo:
                    memo[row] = ",".join(map(str, row))
                column.append(memo[row])
            columns.append(column)
        return list(map("/".join, zip(*columns))) if columns else [""] * self.num_vertices

    def tableau(self, v: int) -> Tableau:
        return Tableau(self.shape, self.rows(v))

    def vertex_id(self, t: Tableau) -> int:
        return self.words.index(reading_word(t))

    def edges(self):
        """(src, dst, color) triples in id order."""
        for v, row in enumerate(self.succ):
            for c, w in enumerate(row, start=1):
                if w is not None:
                    yield v, w, c


def generate_crystal(shape: Partition, cap: Optional[int] = None) -> CrystalGraph:
    """Breadth-first closure of the highest-weight tableau under all F_i, on
    the codes and with the two memos of the module docstring. F_i adds 1 to
    the letter sum, so the images of one level are the next level: ids
    holds the codes of the level being found, level those being read."""
    if cap is None:
        cap = default_cap()
    n = shape.n
    over_cap = f"crystal for {shape.parts} at n={n} exceeds cap {cap}"
    if hook_content_count(shape) > cap:
        raise SizeLimitExceeded(over_cap)
    cells = reading_cells(shape)
    end = len(cells)
    position = {cell: p for p, cell in enumerate(cells)}
    right = [position.get((i, j + 1), end) for i, j in cells]
    below = [position.get((i + 1, j), end) for i, j in cells]
    width = (n + 1).bit_length()
    shift = [1 << width * p for p in range(end)]
    low = end - shape.part(1)
    cut = width * low
    mask = (1 << cut) - 1
    words = [reading_word(highest_weight_tableau(shape))]
    level = {sum(a << width * p for p, a in enumerate(words[0])): 0}
    lower: dict[int, tuple] = {}  # lower rows: (i, depth[i], targets[i]), i = 1..n
    upper: dict[int, tuple] = {}  # top row: (starts, stops) of the blocks of 1..n
    succ: list[list[Optional[int]]] = [[None] * n]
    colors, letters, sentinel = range(1, n + 1), range(n + 1), (n + 2,)
    while level:
        ids: dict[int, int] = {}
        for code, head in level.items():
            word = words[head]
            if (memo := lower.get(code & mask)) is None:
                depth, targets = _brackets(word[:low], n)
                padded = word + sentinel  # a missing neighbour reads n + 2
                memo = lower[code & mask] = tuple(
                    (i, d, p if p is None or padded[right[p]] > i and padded[below[p]] > i + 1
                     else ~p) for i, d, p in zip(colors, depth[1:-1], targets[1:-1]))
            if (top := upper.get(code >> cut)) is None:
                ends = tuple(map(bisect_right, repeat(word), letters, repeat(low)))
                top = upper[code >> cut] = (ends[:-1], ends[1:])
            row = succ[head]
            for (i, d, p), start, stop in zip(memo, top[0], top[1]):
                if stop - start > d:
                    p = stop - 1
                    if (q := below[p]) < end and word[q] <= i + 1:
                        p = ~p
                elif p is None:
                    continue
                if p < 0:
                    p = ~p
                    bad = word[:p] + (i + 1,) + word[p + 1:]
                    validate_tableau(shape, map(bad.__getitem__, row_slices(shape)))
                    raise RuntimeError(f"bump of letter {p} in {word} passed validate_tableau")
                img = code + shift[p]
                if (w := ids.get(img)) is None:
                    w = len(words)
                    if w >= cap:
                        raise SizeLimitExceeded(over_cap)
                    ids[img] = w
                    image = list(word)
                    image[p] = i + 1
                    words.append(tuple(image))
                    succ.append([None] * n)
                row[i - 1] = w
        level = ids
    return CrystalGraph(shape=shape, words=words, succ=succ)


@dataclass(frozen=True)
class DualCrystal:
    """The dual crystal together with the forced vertex bijection from the
    original graph (to_dual[v] is the dual id of vertex v)."""

    graph: CrystalGraph
    to_dual: tuple[int, ...]

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
        raise IsomorphismFailure(
            f"dual vertex count {dual.num_vertices} != {graph.num_vertices}"
        )
    mapping: list[Optional[int]] = [None] * graph.num_vertices
    mapping[0] = 0
    queue = [0]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
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
    return frozenset(
        i for i in range(1, shape.n + 1) if shape.part(i) == shape.part(i + 1)
    )


_JSON_VERTEX = '{\n      "id": %d,\n      "rows": "%s"\n    }'
_JSON_EDGE_HEAD = '{\n      "src": %d,\n      "dst": '
_JSON_EDGE_TAIL = ',\n      "color": %d\n    }'


def to_json(graph: CrystalGraph) -> str:
    """{"lambda", "n", "vertices": [{"id", "rows"}], "edges": [{"src", "dst",
    "color"}]} in the json.dumps(indent=2) layout. A vertex text holds only
    digits, ',' and '/', so it is written between quotes as it is."""
    def array(items: list[str]) -> str:
        return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"
    vertices = [_JSON_VERTEX % pair for pair in enumerate(graph.texts())]
    tails = [_JSON_EDGE_TAIL % c for c in range(1, graph.n + 1)]
    edges = []
    for v, row in enumerate(graph.succ):
        head = _JSON_EDGE_HEAD % v
        edges += [head + str(w) + tail for w, tail in zip(row, tails) if w is not None]
    return (f'{{\n  "lambda": {array([str(p) for p in graph.shape.parts])},\n  "n": {graph.n},'
            f'\n  "vertices": {array(vertices)},\n  "edges": {array(edges)}\n}}')


_DOT_PALETTE = [
    "red", "blue", "green3", "orange", "purple", "brown", "cyan3", "magenta",
]


def to_dot(graph: CrystalGraph) -> str:
    lines = ["digraph crystal {", "  rankdir=BT;"]
    lines += [f'  v{v} [label="{text}"];' for v, text in enumerate(graph.texts())]
    for src, dst, color in graph.edges():
        pen = _DOT_PALETTE[(color - 1) % len(_DOT_PALETTE)]
        lines.append(f'  v{src} -> v{dst} [label="F{color}", color={pen}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
