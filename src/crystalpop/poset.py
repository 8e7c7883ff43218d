"""Order-theoretic queries on a crystal graph.

Ids follow CrystalGraph's order (see there): topological, vertex 0 the
minimum, edges the covers. Up-sets and down-sets are Python integers used
as bitsets, so join/meet existence is a couple of word operations per pair.
A bounded finite poset is a lattice once any two lower covers of one
element have a meet, so `is_lattice` checks O(V·n²) such pairs, not all
O(V²), in one bottom-up pass over private down-sets (about V²/16 bytes),
fed as the crystal is generated or from a stored graph; it builds no
ReachabilityIndex unless a non-lattice's witness is read. The index keeps
succ only: its down-sets are pushed along succ on first read (by `meet`
or `find_bowtie`), so no query here builds the graph's E_i table.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from typing import Iterator, Optional

from .crystal import CrystalGraph
from .values import Frozen, Value


class MeetUndefined(RuntimeError):
    pass


class BowtieCertificate(Frozen):
    """Quadruple witnessing that t1 and t2 have no join: t1, t2 incomparable;
    u1, u2 incomparable; t1 covered by u1; and t1 <= u2, t2 <= u1, t2 <= u2."""

    def __init__(self, t1: int, t2: int, u1: int, u2: int):
        vars(self).update(t1=t1, t2=t2, u1=u1, u2=u2)


class ReachabilityIndex:
    """Per-vertex ancestor/descendant bitsets over the crystal DAG, from succ
    alone; the down-sets are built on first read, pushed along succ in id
    order (ids are topological, so down[v] is final when the pass reaches v)."""

    def __init__(self, graph: CrystalGraph):
        size, succ = graph.num_vertices, graph.succ
        up = [0] * size
        for v in range(size - 1, -1, -1):
            bits = 1 << v
            for w in succ[v]:
                if w is not None:
                    bits |= up[w]
            up[v] = bits
        self.up = up
        self._succ = succ

    @cached_property
    def down(self) -> list[int]:
        # Each down[w] starts at its final width, so its rebuilds reuse blocks
        # of one size (grown from 0, they raised peak RSS on (5,3,1) n=5 by
        # 3.4 MB under Python 3.11).
        down = [1 << v for v in range(len(self._succ))]
        for v, row in enumerate(self._succ):
            bits = down[v]
            for w in row:
                if w is not None:
                    down[w] |= bits
        return down

    def leq(self, u: int, v: int) -> bool:
        return bool(self.up[u] >> v & 1)

    def incomparable(self, u: int, v: int) -> bool:
        return not self.leq(u, v) and not self.leq(v, u)


def minimal_upper_bounds(index: ReachabilityIndex, u: int, v: int) -> list[int]:
    """Minimal elements of the common up-set. The lowest id present is
    always minimal because ids refine the order."""
    bits = index.up[u] & index.up[v]
    out = []
    while bits:
        z = (bits & -bits).bit_length() - 1
        out.append(z)
        bits &= ~index.up[z]
    return out


def join(index: ReachabilityIndex, u: int, v: int) -> Optional[int]:
    """Least upper bound, or None if the two minimal upper bounds differ."""
    up = index.up
    common = up[u] & up[v]
    if not common:
        return None
    z = (common & -common).bit_length() - 1
    return z if common == up[z] else None


def meet(index: ReachabilityIndex, ids) -> Optional[int]:
    """Greatest lower bound of a nonempty set of vertices."""
    down = index.down
    common = None
    for v in ids:
        common = down[v] if common is None else common & down[v]
    if common is None:
        raise ValueError("meet of an empty set")
    if not common:
        return None
    z = common.bit_length() - 1
    return z if common == down[z] else None


def _first_joinless_pair(up: list[int]) -> Optional[tuple[int, int]]:
    """First pair (u, v), u < v in id order, with no join."""
    for u, up_u in enumerate(up):
        for v in range(u + 1, len(up)):
            if up_u >> v & 1:
                continue  # comparable pairs always have a join
            common = up_u & up[v]
            if common != up[(common & -common).bit_length() - 1]:
                return (u, v)
    return None


class LatticeResult(Value):
    """The verdict of is_lattice. A non-lattice's witness, the first joinless
    pair in id order, is found on its first read (after draining any levels
    left) from the index is_lattice was given, or from one built then."""

    def __init__(self, is_lattice: bool, witness: Optional[tuple[int, int]] = None,
                 *, source=None):
        self.is_lattice = is_lattice
        if source is None:
            self.witness = witness
        self._source = source  # (graph, index or None, levels or None, the failure)

    @cached_property
    def witness(self) -> tuple[int, int]:
        graph, index, levels, failure = self._source
        for _ in levels or ():
            pass
        witness = _first_joinless_pair((index or ReachabilityIndex(graph)).up)
        if witness is None:
            raise RuntimeError(f"{failure} but the pair scan finds none")
        self._source = None  # so the result keeps neither the graph nor the index
        return witness


def is_lattice(graph: CrystalGraph, index: Optional[ReachabilityIndex] = None, *,
               levels: Optional[Iterator[CrystalGraph]] = None) -> LatticeResult:
    """Lemma (the dual of the cover lemma; Davey-Priestley, Introduction to
    Lattices and Order): a finite poset with a minimum and a maximum is a
    lattice if any two lower covers of one element have a meet. One pass up
    the ids (a topological order) pushes each down-set along its succ row,
    from its final width 1 << w at the first push into w, and tests each
    later push into w against w's earlier lower covers with meet's test:
    O(V·n²) tests for n colors, not O(V²). A nonzero id no push reached (a
    second minimal element) fails, and so does a second empty row. levels,
    the crystal_levels generator growing graph, is read a level at a time,
    so generating a non-lattice stops at its first meetless pair. The pass
    stops at the first failure; index serves only the witness."""
    succ, start = graph.succ, 0
    down, lower = [1], [None]  # down-sets, 0 until reached; lower covers pushed so far
    while start < (bound := graph.num_vertices):
        if levels is not None:
            next(levels, None)  # the next level, which fills the rows below bound
        down += repeat(0, graph.num_vertices - len(down))
        lower += repeat(None, graph.num_vertices - len(lower))
        for v in range(start, bound):
            if not (bits := down[v]):
                return LatticeResult(False, source=(graph, index, levels, f"0 and {v} are minimal"))
            lower[v] = None
            for w in filter(None, succ[v]):  # drops None; 0, the minimum, is in no row
                if (seen := lower[w]) is None:
                    lower[w], down[w] = [v], bits | 1 << w
                    continue
                for x in seen:
                    common = down[x] & bits
                    if common != down[common.bit_length() - 1]:
                        failure = f"lower covers {x}, {v} have no meet"
                        return LatticeResult(False, source=(graph, index, levels, failure))
                seen.append(v)
                down[w] |= bits
        start = bound
    if (maximal := len(succ) - sum(map(any, succ))) != 1:
        return LatticeResult(False, source=(graph, index, levels, f"{maximal} ids are maximal"))
    return LatticeResult(True)


def verify_bowtie(graph: CrystalGraph, cert: BowtieCertificate,
                  index: Optional[ReachabilityIndex] = None) -> bool:
    """Check all bowtie conditions, including that u1 covers t1 (a cover in
    the crystal order is an edge of the graph)."""
    if index is None:
        index = ReachabilityIndex(graph)
    return (
        cert.u1 in graph.succ[cert.t1]
        and index.incomparable(cert.t1, cert.t2)
        and index.incomparable(cert.u1, cert.u2)
        and index.leq(cert.t1, cert.u2)
        and index.leq(cert.t2, cert.u1)
        and index.leq(cert.t2, cert.u2)
    )


def find_bowtie(graph: CrystalGraph,
                index: Optional[ReachabilityIndex] = None) -> Optional[BowtieCertificate]:
    """First bowtie in a deterministic scan over cover edges, or None.

    For a cover edge (t1, u1) the possible t2 are lows, the part of down[u1]
    incomparable with t1. A candidate u2 has one below it exactly when it
    lies in `above`, the union of up[t] over lows, so the lowest candidate
    in `above` is the first u2 that trying every candidate in id order
    accepts, with the same t2. A t already in `above` adds nothing to it."""
    if index is None:
        index = ReachabilityIndex(graph)
    up, down = index.up, index.down
    for t1 in range(graph.num_vertices):
        cmp_t1 = up[t1] | down[t1]
        for u1 in graph.succ[t1]:
            if u1 is None:
                continue
            lows = down[u1] & ~cmp_t1
            above = 0
            while lows:
                t = (lows & -lows).bit_length() - 1
                above |= up[t]
                lows &= ~above
            candidates = up[t1] & ~up[u1] & ~down[u1] & above
            if candidates:
                u2 = (candidates & -candidates).bit_length() - 1
                t2bits = down[u1] & down[u2] & ~cmp_t1
                t2 = (t2bits & -t2bits).bit_length() - 1
                return BowtieCertificate(t1=t1, t2=t2, u1=u1, u2=u2)
    return None
