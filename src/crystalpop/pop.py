"""Pop-stack sorting dynamics on crystals and permutations. The crystal pop
sends a vertex to the unique source of its component in the crystal
restricted to its descent colors; is_poppable checks, with one labelling
pass per color set, that every such source is unique."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .crystal import CrystalGraph, embed_parabolic_quotient
from .perm import Permutation, coxeter_pop
from .poset import MeetUndefined, ReachabilityIndex, meet

MAX_POPPABLE_COLORS = 12


class NonTermination(RuntimeError):
    pass


@dataclass(frozen=True)
class OrbitReport:
    """Forward orbit of a vertex: the trajectory up to and including the
    first fixed point. length is the orbit size |O|."""

    start: int
    trajectory: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.trajectory)


def down_colors(graph: CrystalGraph, v: int) -> frozenset[int]:
    """Colors of the edges entering v (the vertex's descents)."""
    return frozenset(
        i for i in range(1, graph.n + 1) if graph.pred[v][i - 1] is not None
    )


def pop_crystal(graph: CrystalGraph, v: int) -> int:
    """Descent walk: repeatedly pick a color that is both a descent of the
    starting vertex and of the current one, and raise along it to
    exhaustion. The fixed point is the source of the restricted component,
    so the walk order does not matter; we take the smallest color."""
    target = down_colors(graph, v)
    cur = v
    while True:
        avail = target & down_colors(graph, cur)
        if not avail:
            return cur
        i = min(avail)
        while graph.pred[cur][i - 1] is not None:
            cur = graph.pred[cur][i - 1]


def forward_orbit(start, step) -> tuple:
    """start, step(start), step(step(start)), ... up to and including the
    first fixed point of step; revisiting an earlier element raises
    NonTermination."""
    trajectory = [start]
    seen = {start}
    while (nxt := step(trajectory[-1])) != trajectory[-1]:
        if nxt in seen:
            raise NonTermination(f"orbit of {start} does not reach a fixed point")
        trajectory.append(nxt)
        seen.add(nxt)
    return tuple(trajectory)


def orbit(graph: CrystalGraph, v: int) -> OrbitReport:
    return OrbitReport(start=v, trajectory=forward_orbit(v, lambda w: pop_crystal(graph, w)))


def orbit_lengths(graph: CrystalGraph) -> list[int]:
    """orbit(graph, v).length for every v, one pop each: pop_crystal moves to
    a smaller id or stays fixed, so the lengths fill in id order."""
    lengths = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        w = pop_crystal(graph, v)
        if w > v:
            raise NonTermination(f"pop moved vertex {v} up to {w}")
        lengths[v] = 1 if w == v else 1 + lengths[w]
    return lengths


def max_orbit_size(graph: CrystalGraph) -> tuple[int, int]:
    """Maximum orbit size of the crystal pop operator and its first witness."""
    lengths = orbit_lengths(graph)
    best = max(lengths)
    return best, lengths.index(best)


def pop_permutation(w: Permutation) -> Permutation:
    """Reverse each maximal descending run."""
    line = list(w.one_line)
    out = []
    start = 0
    for k in range(1, len(line) + 1):
        if k == len(line) or line[k - 1] < line[k]:
            out.extend(reversed(line[start:k]))
            start = k
    return Permutation(tuple(out))


def semilattice_pop(graph: CrystalGraph, v: int,
                    index: Optional[ReachabilityIndex] = None) -> int:
    """Meet of v with everything it covers, when that meet exists."""
    if index is None:
        index = ReachabilityIndex(graph)
    ids = [v] + [w for w in graph.pred[v] if w is not None]
    result = meet(index, ids)
    if result is None:
        raise MeetUndefined(f"no meet for vertex {v} and its lower covers")
    return result


def is_poppable(graph) -> bool:
    """Every component of every color restriction has a unique source.

    Needs the CrystalGraph pred layout with ids in topological order (every
    predecessor has a smaller id; see poset.py). For each nonempty color set
    J, one pass in id order labels the vertices: a vertex with no
    J-predecessor is its own label, any other takes the label of its
    J-predecessors, and the check fails when two of those differ. A
    completed pass makes labels constant on components, with each source its
    own label, so each component has one source; conversely, a component's
    unique source is every label in it. With J empty, components are single
    vertices."""
    n = graph.n
    if n > MAX_POPPABLE_COLORS:
        raise ValueError(f"2^{n} color subsets is past the practical limit")
    for mask in range(1, 1 << n):
        colors = [i for i in range(n) if mask >> i & 1]
        label = list(range(graph.num_vertices))
        for v, row in enumerate(graph.pred):
            mine = None
            for i in colors:
                w = row[i]
                if w is not None:
                    if mine is None:
                        mine = label[w]
                    elif label[w] != mine:
                        return False
            if mine is not None:
                label[v] = mine
    return True


def pop_agreement_on_quotient(graph: CrystalGraph) -> bool:
    """Crystal pop agrees with the Coxeter pop on the embedded parabolic
    quotient."""
    embedding = embed_parabolic_quotient(graph)
    for w, v in embedding.items():
        if pop_crystal(graph, v) != embedding[coxeter_pop(w)]:
            return False
    return True
