"""Order-theoretic queries on a crystal graph.

Vertex ids are assigned in BFS order from the minimum and every edge raises
the total entry sum by one, so ids are a topological order: u < v whenever
the order relation u < v holds. Up-sets and down-sets are stored as Python
integers used as bitsets, which makes join/meet existence a couple of word
operations per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Per-vertex ancestor/descendant bitsets over the crystal DAG."""

    def __init__(self, graph: CrystalGraph):
        self.graph = graph
        size = graph.num_vertices
        up = [0] * size
        for v in range(size - 1, -1, -1):
            bits = 1 << v
            for w in graph.succ[v]:
                if w is not None:
                    bits |= up[w]
            up[v] = bits
        down = [0] * size
        for v in range(size):
            bits = 1 << v
            for w in graph.pred[v]:
                if w is not None:
                    bits |= down[w]
            down[v] = bits
        self.up = up
        self.down = down

    def leq(self, u: int, v: int) -> bool:
        return bool(self.up[u] >> v & 1)

    def incomparable(self, u: int, v: int) -> bool:
        return not self.leq(u, v) and not self.leq(v, u)


def _minimal_of_upset(index: ReachabilityIndex, bits: int) -> list[int]:
    """Minimal elements of an up-closed bitset. The lowest id present is
    always minimal because ids refine the order."""
    out = []
    while bits:
        z = (bits & -bits).bit_length() - 1
        out.append(z)
        bits &= ~index.up[z]
    return out


def minimal_upper_bounds(index: ReachabilityIndex, u: int, v: int) -> list[int]:
    return _minimal_of_upset(index, index.up[u] & index.up[v])


def join(index: ReachabilityIndex, u: int, v: int) -> Optional[int]:
    """Least upper bound, or None if the two minimal upper bounds differ."""
    common = index.up[u] & index.up[v]
    if not common:
        return None
    z = (common & -common).bit_length() - 1
    return z if common == index.up[z] else None


def meet(index: ReachabilityIndex, ids) -> Optional[int]:
    """Greatest lower bound of a nonempty set of vertices."""
    ids = list(ids)
    if not ids:
        raise ValueError("meet of an empty set")
    common = index.down[ids[0]]
    for v in ids[1:]:
        common &= index.down[v]
    if not common:
        return None
    z = common.bit_length() - 1
    return z if common == index.down[z] else None


@dataclass(frozen=True)
class LatticeResult:
    is_lattice: bool
    witness: Optional[tuple[int, int]] = None


def is_lattice(graph: CrystalGraph, index: Optional[ReachabilityIndex] = None) -> LatticeResult:
    """Check that every pair has a join (sufficient here: unique minimum and
    maximum). Pairs are scanned in id order, so the witness is deterministic."""
    if index is None:
        index = ReachabilityIndex(graph)
    size = graph.num_vertices
    up = index.up
    for u in range(size):
        up_u = up[u]
        for v in range(u + 1, size):
            if up_u >> v & 1:
                continue  # comparable pairs always have a join
            common = up_u & up[v]
            z = (common & -common).bit_length() - 1
            if common != up[z]:
                return LatticeResult(False, (u, v))
    return LatticeResult(True)


def verify_bowtie(graph: CrystalGraph, cert: BowtieCertificate,
                  index: Optional[ReachabilityIndex] = None) -> bool:
    """Check all bowtie conditions, including that u1 covers t1 (a cover in
    the crystal order is an edge of the graph)."""
    if index is None:
        index = ReachabilityIndex(graph)
    covers = any(w == cert.u1 for w in graph.succ[cert.t1] if w is not None)
    return (
        covers
        and index.incomparable(cert.t1, cert.t2)
        and index.incomparable(cert.u1, cert.u2)
        and index.leq(cert.t1, cert.u2)
        and index.leq(cert.t2, cert.u1)
        and index.leq(cert.t2, cert.u2)
    )


def find_bowtie(graph: CrystalGraph,
                index: Optional[ReachabilityIndex] = None) -> Optional[BowtieCertificate]:
    """First bowtie in a deterministic scan over cover edges, or None."""
    if index is None:
        index = ReachabilityIndex(graph)
    up, down = index.up, index.down
    for t1 in range(graph.num_vertices):
        cmp_t1 = up[t1] | down[t1]
        for u1 in graph.succ[t1]:
            if u1 is None:
                continue
            candidates = up[t1] & ~up[u1] & ~down[u1]
            while candidates:
                u2 = (candidates & -candidates).bit_length() - 1
                candidates &= candidates - 1
                t2bits = down[u1] & down[u2] & ~cmp_t1
                if t2bits:
                    t2 = (t2bits & -t2bits).bit_length() - 1
                    return BowtieCertificate(t1=t1, t2=t2, u1=u1, u2=u2)
    return None

