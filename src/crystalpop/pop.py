"""Pop-stack sorting dynamics on crystals and permutations. The crystal pop
sends a vertex to the unique source of its component in the crystal
restricted to its descent colors; is_poppable checks, with one labelling
pass per color set, that every such source is unique."""

from __future__ import annotations

from typing import Optional

from .crystal import CrystalGraph
from .perm import Permutation, coxeter_pop
from .poset import MeetUndefined, ReachabilityIndex, meet
from .values import Frozen

MAX_POPPABLE_COLORS = 12


class NonTermination(RuntimeError):
    pass


class OrbitReport(Frozen):
    """Forward orbit of a vertex: the trajectory up to and including the
    first fixed point. length is the orbit size |O|."""

    def __init__(self, trajectory: tuple[int, ...]):
        vars(self).update(trajectory=trajectory)

    @property
    def length(self) -> int:
        return len(self.trajectory)


def pop_crystal(graph: CrystalGraph, v: int) -> int:
    """Descent walk: repeatedly pick a color that is both a descent of the
    starting vertex and of the current one, and raise along it to
    exhaustion. The fixed point is the source of the restricted component,
    so the walk order does not matter; we take the smallest color."""
    return _pop_crystal(graph.pred, v)


def _pop_crystal(pred: list[list[Optional[int]]], v: int) -> int:
    """pop_crystal on the E_i table, for callers that read graph.pred once."""
    target = [i for i, w in enumerate(pred[v]) if w is not None]
    while True:
        row = pred[v]
        for i in target:
            if row[i] is not None:
                break
        else:
            return v
        while (w := pred[v][i]) is not None:
            v = w


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
    pred = graph.pred
    return OrbitReport(trajectory=forward_orbit(v, lambda w: _pop_crystal(pred, w)))


def orbit_lengths(graph: CrystalGraph) -> list[int]:
    """orbit(graph, v).length for every v, one pop each: pop_crystal moves to
    a smaller id or stays fixed, so the lengths fill in id order."""
    lengths, pred = [0] * graph.num_vertices, graph.pred
    for v in range(graph.num_vertices):
        w = _pop_crystal(pred, v)
        if w > v:
            raise NonTermination(f"pop moved vertex {v} up to {w}")
        lengths[v] = 1 if w == v else 1 + lengths[w]
    return lengths


def max_orbit_size(graph: CrystalGraph) -> tuple[int, int]:
    """Maximum orbit size of the crystal pop operator and its first witness."""
    lengths = orbit_lengths(graph)
    best = max(lengths)
    return best, lengths.index(best)


# Pop-stack sorting of a permutation is the type-A Coxeter pop: both reverse
# each maximal descending run.
pop_permutation = coxeter_pop


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

    Reads graph.pred and relies on CrystalGraph's id order: every
    predecessor has a smaller id. For each nonempty color set J, one pass in
    id order labels the vertices: a vertex with no J-predecessor is its own
    label, any other takes the label of its J-predecessors, and the check
    fails when two of those differ. A completed pass makes labels constant
    on components, with each source its own label, so each component has one
    source; conversely, a component's unique source is every label in it.
    With J empty, components are single vertices."""
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


def pop_agreement_on_quotient(graph: CrystalGraph, embedding: dict[Permutation, int]) -> bool:
    """Crystal pop agrees with the Coxeter pop on the embedded parabolic
    quotient; embedding is build_demazure_family(graph).extremal."""
    pred = graph.pred
    return all(_pop_crystal(pred, v) == embedding[coxeter_pop(w)] for w, v in embedding.items())
