"""Crystal operators on tableaux and full crystal-graph generation.

Everything runs on reading words (entries in reading_cells order). F_i pairs
each i+1 with a later i like parentheses and bumps the rightmost unmatched i
to i+1 (Bump-Schilling, Crystal Bases, Ch. 2-3); one pass finds that letter
for every color, since a letter a opens a bracket for color a-1 and closes
one for color a. E_i is F_{n+1-i} on the reversed word with letters a ->
n+2-a. The crystal graph is the breadth-first closure of the highest-weight
word under all F_i, ids in discovery order. An image differs from its source
in one cell, so checking that cell against n+1 and its right and lower
neighbours is validate_tableau; tableaux are built once, after the search.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .perm import Permutation, parabolic_quotient, reduced_word
from .tableaux import (
    ColumnViolation, EntryOutOfRange, Partition, RowViolation, Tableau, dual_shape,
    format_tableau, highest_weight_tableau, hook_content_count, reading_cells, reading_word,
)

DEFAULT_VERTEX_CAP = 2_000_000
CAP_ENV_VAR = "CRYSTAL_POP_CAP"


class SizeLimitExceeded(RuntimeError):
    pass


class IsomorphismFailure(RuntimeError):
    """The forced colored-digraph matching broke; indicates a bug."""


def default_cap() -> int:
    return int(os.environ.get(CAP_ENV_VAR, DEFAULT_VERTEX_CAP))


def _lowering_targets(word, n: int) -> list[Optional[int]]:
    """targets[i] is the position of the letter F_i bumps in a reading word,
    or None if F_i is zero, for all colors i in [1, n+1] at once."""
    depth = [0] * (n + 2)
    targets: list[Optional[int]] = [None] * (n + 2)
    for p, a in enumerate(word):
        depth[a - 1] += 1
        if depth[a]:
            depth[a] -= 1
        else:
            targets[a] = p
    return targets


def lowering_F(t: Tableau, i: int) -> Optional[Tableau]:
    """F_i: bump the rightmost unmatched i to i+1, or None if F_i(t) = 0."""
    n = t.shape.n
    p = _lowering_targets(reading_word(t), n)[i] if 1 <= i <= n + 1 else None
    return None if p is None else t.with_entry(*reading_cells(t.shape)[p], i + 1)


def raising_E(t: Tableau, i: int) -> Optional[Tableau]:
    """E_i: drop the leftmost unmatched i+1 to i, or None if E_i(t) = 0."""
    n = t.shape.n
    mirrored = [n + 2 - a for a in reversed(reading_word(t))]
    p = _lowering_targets(mirrored, n)[n + 1 - i] if 0 <= i <= n else None
    return None if p is None else t.with_entry(*reading_cells(t.shape)[-1 - p], i)


@dataclass
class CrystalGraph:
    """Edge-colored DAG over the tableaux of one shape. succ[v][i-1] is the
    id of F_i(vertex v) or None; pred is the E_i counterpart. Vertex 0 is
    the highest-weight tableau, the minimum, by construction."""

    shape: Partition
    vertices: list[Tableau]
    succ: list[list[Optional[int]]]
    pred: list[list[Optional[int]]]
    index: dict[Tableau, int] = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def vertex_id(self, t: Tableau) -> int:
        return self.index[t]

    def edges(self):
        """(src, dst, color) triples in id order."""
        for v, row in enumerate(self.succ):
            for c, w in enumerate(row, start=1):
                if w is not None:
                    yield v, w, c

    def max_vertex(self) -> int:
        sinks = [v for v, row in enumerate(self.succ) if not any(x is not None for x in row)]
        if len(sinks) != 1:
            raise IsomorphismFailure(f"expected a unique sink, found {sinks}")
        return sinks[0]


def _check_bump(cells, p: int, value: int, word, right, below, top: int) -> None:
    """validate_tableau, with the same errors, for a semistandard word whose
    letter p grows to value: only that cell can break a condition."""
    (i, j), r, b = cells[p], right[p], below[p]
    if value > top:
        raise EntryOutOfRange((i, j), f"{value} not in [1, {top}]")
    if r is not None and word[r] < value:
        raise RowViolation((i, j + 1), f"{value} > {word[r]}")
    if b is not None and word[b] <= value:
        raise ColumnViolation((i + 1, j), f"{value} >= {word[b]}")


def generate_crystal(shape: Partition, cap: Optional[int] = None) -> CrystalGraph:
    """Breadth-first closure of the highest-weight tableau under all F_i."""
    if cap is None:
        cap = default_cap()
    n = shape.n
    over_cap = f"crystal for {shape.parts} at n={n} exceeds cap {cap}"
    if hook_content_count(shape) > cap:
        raise SizeLimitExceeded(over_cap)
    cells = reading_cells(shape)
    position = {cell: p for p, cell in enumerate(cells)}
    right = [position.get((i, j + 1)) for i, j in cells]
    below = [position.get((i + 1, j)) for i, j in cells]
    words = [reading_word(highest_weight_tableau(shape))]
    ids = {words[0]: 0}
    succ: list[list[Optional[int]]] = [[None] * n]
    pred: list[list[Optional[int]]] = [[None] * n]
    head = 0
    while head < len(words):
        word = words[head]
        targets = _lowering_targets(word, n)
        for i in range(1, n + 1):
            p = targets[i]
            if p is None:
                continue
            _check_bump(cells, p, i + 1, word, right, below, n + 1)
            img = word[:p] + (i + 1,) + word[p + 1:]
            if (w := ids.get(img)) is None:
                if len(words) >= cap:
                    raise SizeLimitExceeded(over_cap)
                w = len(words)
                ids[img] = w
                words.append(img)
                succ.append([None] * n)
                pred.append([None] * n)
            succ[head][i - 1] = w
            pred[w][i - 1] = head
        head += 1
    del ids
    # The top row is read last; each word is freed as its tableau replaces it.
    ends = [shape.size - sum(shape.parts[:k]) for k in range(len(shape.parts) + 1)]
    rows = [slice(lo, hi) for hi, lo in zip(ends, ends[1:])]
    for v, word in enumerate(words):
        words[v] = Tableau(shape, tuple(map(word.__getitem__, rows)))
    index = {t: v for v, t in enumerate(words)}
    return CrystalGraph(shape=shape, vertices=words, succ=succ, pred=pred, index=index)


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
    chain = [v]
    while (w := graph.pred[chain[-1]][i - 1]) is not None:
        chain.append(w)
    below = len(chain) - 1
    chain.reverse()
    while (w := graph.succ[chain[-1]][i - 1]) is not None:
        chain.append(w)
    return chain[len(chain) - 1 - below]


def weyl_act(graph: CrystalGraph, v: int, word) -> int:
    """Right action: apply the reflections left to right."""
    for i in word:
        v = weyl_reflect(graph, v, i)
    return v


def stabilizer_colors(shape: Partition) -> frozenset[int]:
    """Colors i with equal adjacent parts (zero-padded), generating the
    stabilizer of the weight."""
    return frozenset(
        i for i in range(1, shape.n + 1) if shape.part(i) == shape.part(i + 1)
    )


def embed_parabolic_quotient(graph: CrystalGraph) -> dict[Permutation, int]:
    """Map each minimal coset representative w (for the stabilizer of the
    shape) to the vertex reached from the minimum by acting with a reduced
    word of w."""
    kset = stabilizer_colors(graph.shape)
    out = {}
    for w in parabolic_quotient(kset, graph.n + 1):
        out[w] = weyl_act(graph, 0, reduced_word(w))
    return out


def to_json(graph: CrystalGraph) -> str:
    payload = {
        "lambda": list(graph.shape.parts),
        "n": graph.n,
        "vertices": [
            {"id": v, "rows": format_tableau(t)} for v, t in enumerate(graph.vertices)
        ],
        "edges": [
            {"src": src, "dst": dst, "color": color}
            for src, dst, color in graph.edges()
        ],
    }
    return json.dumps(payload, indent=2)


_DOT_PALETTE = [
    "red", "blue", "green3", "orange", "purple", "brown", "cyan3", "magenta",
]


def to_dot(graph: CrystalGraph) -> str:
    lines = ["digraph crystal {", "  rankdir=BT;"]
    for v, t in enumerate(graph.vertices):
        lines.append(f'  v{v} [label="{format_tableau(t)}"];')
    for src, dst, color in graph.edges():
        pen = _DOT_PALETTE[(color - 1) % len(_DOT_PALETTE)]
        lines.append(f'  v{src} -> v{dst} [label="F{color}", color={pen}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
