"""Order-theoretic queries on a crystal graph.

Ids follow CrystalGraph's order (see there): topological, vertex 0 the
minimum, edges the covers. Up-sets and down-sets are Python integers used
as bitsets, so join/meet existence is a couple of word operations per pair.
A finite poset with a minimum and a maximum is a lattice once any two
covers of one element have a join, so `is_lattice` checks O(V·n²) such
pairs, not all O(V²), in one top-down pass over private up-sets stored in
reversed bit order (about V²/16 bytes); it builds no ReachabilityIndex
unless a non-lattice's witness is read. The index keeps succ only: its
down-sets are pushed along succ on first read (by `meet` or
`find_bowtie`), so no query here builds the graph's E_i table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from .crystal import CrystalGraph


class MeetUndefined(RuntimeError):
    pass


@dataclass(frozen=True)
class BowtieCertificate:
    """Quadruple witnessing that t1 and t2 have no join: t1, t2 incomparable;
    u1, u2 incomparable; t1 covered by u1; and t1 <= u2, t2 <= u1, t2 <= u2."""

    t1: int
    t2: int
    u1: int
    u2: int


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
    common = index.up[u] & index.up[v]
    if not common:
        return None
    z = (common & -common).bit_length() - 1
    return z if common == index.up[z] else None


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


class LatticeResult:
    """The verdict of is_lattice. A non-lattice's witness, the first
    joinless pair in id order, is found on its first read from the index
    is_lattice was given, or from one built then."""

    def __init__(self, is_lattice: bool, witness: Optional[tuple[int, int]] = None,
                 *, source=None):
        self.is_lattice = is_lattice
        if source is None:
            self.witness = witness
        self._source = source  # (graph, index or None, the joinless covers)

    @cached_property
    def witness(self) -> tuple[int, int]:
        graph, index, (x, y) = self._source
        witness = _first_joinless_pair((index or ReachabilityIndex(graph)).up)
        if witness is None:
            raise RuntimeError(f"covers {x}, {y} have no join but the pair scan finds none")
        self._source = None  # so the result keeps neither the graph nor the index
        return witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeResult):
            return NotImplemented
        return (self.is_lattice, self.witness) == (other.is_lattice, other.witness)

    def __repr__(self) -> str:
        return f"LatticeResult(is_lattice={self.is_lattice}, witness={self.witness})"


def is_lattice(graph: CrystalGraph, index: Optional[ReachabilityIndex] = None) -> LatticeResult:
    """Lemma: a finite poset with a minimum and a maximum is a lattice if every
    two distinct elements covering a common element have a join. Every cover
    is an edge, so the check is one AND and one compare of up-sets for each
    two successors of each vertex: O(V·n²) pairs for n colors in place of
    the O(V²) pairs of a full scan.

    One pass from the top id down to 0 builds its own up-sets in reversed
    bit order: vertex w is bit top - w, so up[v] is top - v + 1 bits wide
    and the lowest id in a common up-set is its highest bit. Ids are a
    topological order, so the up-sets of v's covers are final when the pass
    reaches v, and each two of them are checked there with join's test (an
    empty common up-set, possible only without a maximum, is joinless). The
    pass stops at the first joinless pair; index serves only the witness."""
    succ = graph.succ
    top = graph.num_vertices - 1
    up = [0] * (top + 1)
    for v in range(top, -1, -1):
        covers = [w for w in succ[v] if w is not None]
        bits = 1 << top - v
        for w in covers:
            bits |= up[w]
        up[v] = bits
        for x, y in combinations(covers, 2):
            common = up[x] & up[y]
            if not common or common != up[top + 1 - common.bit_length()]:
                return LatticeResult(False, source=(graph, index, (x, y)))
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
