"""Pop-stack sorting dynamics on crystals and permutations. The crystal pop
sends a vertex v to the unique source of its component in the crystal
restricted to its descent colors D(v). It rests on one hypothesis: every
component of every color restriction has one source. is_poppable checks it,
with one labelling pass per color set, and every B_lambda satisfies it.
Under it, components of restrictions to nested color sets nest, so a pop
may continue from a lower cover's pop when that cover's descents lie inside
v's (the nesting lemma, see pop_crystal). Every pop reader goes through
_popper, whose pop function and memo are made on a graph's first pop and
kept in its __dict__."""

from __future__ import annotations

from typing import Callable, Optional

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
    """The source of v's component in the crystal restricted to D(v), by a
    descent walk: repeatedly pick a color of D(v) that is also a descent of
    the current vertex, and raise along it to exhaustion; we take the
    smallest. The walk stays in v's D(v)-component and ends at a source of
    it. Every component of every color restriction has one source
    (is_poppable checks this hypothesis, and every B_lambda satisfies it), so
    the walk ends at the pop whatever vertex of the component it starts from.
    Hence the nesting lemma: for a lower cover u = E_i(v) (so i is in D(v))
    with D(u) a subset of D(v), u's D(u)-component lies in u's
    D(v)-component, which is v's; so pop(u) lies in it too, and the walk may
    start from pop(u) in place of v. Pops are memoized on the graph, and a
    vertex whose pop is not yet known starts from the first lower cover in
    color order whose pop is known and whose descents lie inside its own."""
    return _popper(graph)(v)


def _popper(graph: CrystalGraph) -> Callable[[int], int]:
    """pop_crystal(graph, .), made on the graph's first pop and kept in
    graph.__dict__ with its memo, as cached_property keeps pred: each
    vertex's pop (-1 until computed) and, once it is, the bit mask of its
    descent colors."""
    if (memo := vars(graph).get("_pop_memo")) is not None:
        return memo[0]
    pred, n = graph.pred, graph.n
    pops, masks = [-1] * graph.num_vertices, [0] * graph.num_vertices
    bits = [1 << i for i in range(n)]
    targets: dict[int, list[int]] = {}  # mask of D(v) -> i for each color i + 1 in D(v)

    def pop(v: int) -> int:
        if (x := pops[v]) >= 0:
            return x
        row = pred[v]
        mask = 0
        for b, w in zip(bits, row):
            if w is not None:
                mask |= b
        if (target := targets.get(mask)) is None:
            target = targets[mask] = [i for i in range(n) if mask >> i & 1]
        x = v
        for i in target:
            u = row[i]
            if not masks[u] & ~mask and (p := pops[u]) >= 0:
                x = p
                break
        while True:
            up = pred[x]
            for i in target:
                if up[i] is not None:
                    break
            else:
                pops[v] = x
                masks[v] = mask
                return x
            while (w := pred[x][i]) is not None:
                x = w
    vars(graph)["_pop_memo"] = pop, pops, masks
    return pop


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
    return OrbitReport(trajectory=forward_orbit(v, _popper(graph)))


def orbit_lengths(graph: CrystalGraph) -> list[int]:
    """orbit(graph, v).length for every v, one pop each: pop_crystal moves to
    a smaller id or stays fixed, so the lengths fill in id order."""
    lengths, pop = [0] * graph.num_vertices, _popper(graph)
    for v in range(graph.num_vertices):
        w = pop(v)
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
    pop = _popper(graph)
    return all(pop(v) == embedding[coxeter_pop(w)] for w, v in embedding.items())
