"""The key map from a crystal to its parabolic quotient.

The carrier is the family of lowering-closure subsets: starting from the
singleton containing the minimum, the subset for w is the closure of the
subset for any lower cover w s_i under F_i. The same pass embeds the
quotient: the vertex u_w is S_i(u_{w s_i}) for any such cover, S_i the
crystal's Weyl-group reflection (Kashiwara, Duke 1993). The key of a vertex
is then the Bruhat-order minimum among the quotient elements whose subset
contains it (the weak order does not suffice: the membership filter can
have two weak-minimal elements, yet its Bruhat minimum is unique).
The defining properties of the key map (how it interacts with E_i/F_i and
with descents) are checked wholesale by verify_key_properties; any
violation there falsifies the construction rather than the caller.
"""

from __future__ import annotations

from .crystal import CrystalGraph, stabilizer_colors, weyl_reflect
from .perm import (
    CheckReport,
    Permutation,
    _set_bits,
    bruhat_leq,
    coxeter_pop,
    identity,
    parabolic_quotient,
    right_descents,
    weak_leq,
)
from .pop import _popper
from .values import Value


class InconsistentFamily(RuntimeError):
    """Two cover paths to the same quotient element yield different sets."""


class NonUniqueMinimum(RuntimeError):
    """The membership filter of some vertex has no unique minimum."""


class DemazureFamily(Value):
    """Vertex bitsets indexed by the parabolic quotient; members and extremal
    both list it in weak-order BFS layers (by length, then one-line order),
    and extremal[w] is the vertex u_w that embeds w in the crystal."""

    def __init__(self, members: dict[Permutation, int], extremal: dict[Permutation, int]):
        self.members, self.extremal = members, extremal


def _closure(succ, bits: int, i: int) -> int:
    """Close a vertex bitset S under F_i, read from the graph's succ table.
    The closure is S plus the tail of each i-string from its members, so
    each member's string is walked up to its end or to a vertex already
    flagged: every vertex of the result is read at most once."""
    flags = bytearray(bin(bits)[:1:-1].encode().ljust(len(succ), b"0"))
    for v in _set_bits(bits):
        w = succ[v][i - 1]
        while w is not None and flags[w] == 48:  # b"0": not yet in the closure
            flags[w] = 49
            w = succ[w][i - 1]
    return int(flags[::-1], 2)


def build_demazure_family(graph: CrystalGraph) -> DemazureFamily:
    """Build the closure family over the quotient by the stabilizer of the
    shape, with the embedded quotient. Every lower cover of an element is
    used and the subsets and reflected vertices must agree; a mismatch
    raises InconsistentFamily."""
    kset = stabilizer_colors(graph.shape)
    order = parabolic_quotient(kset, graph.n + 1)
    e = identity(graph.n + 1)
    members: dict[Permutation, int] = {e: 1 << 0}
    extremal: dict[Permutation, int] = {e: 0}
    for w in order[1:]:
        value = None
        for i in sorted(right_descents(w)):
            below = w.right_mult_gen(i)
            found = (_closure(graph.succ, members[below], i),
                     weyl_reflect(graph, extremal[below], i))
            if value is None:
                value = found
            elif value != found:
                raise InconsistentFamily(f"cover paths disagree at {w} (color {i})")
        members[w], extremal[w] = value  # type: ignore[misc]
    return DemazureFamily(members=members, extremal=extremal)


def all_keys(graph: CrystalGraph, family: DemazureFamily) -> list[Permutation]:
    """The key of every vertex, from one pass over family.members. The first
    member containing a vertex is its candidate key (members are listed by
    length); every later member containing it must lie Bruhat-above that
    candidate. Vertices are grouped by candidate, so each pair of members
    is compared at most once."""
    keys: list[Permutation] = [None] * graph.num_vertices  # type: ignore[list-item]
    groups: list[tuple[Permutation, int]] = []  # (key, bitset of its vertices)
    assigned = 0
    for w, bits in family.members.items():
        for best, group in groups:
            shared = bits & group
            if shared and not bruhat_leq(best, w):
                v = (shared & -shared).bit_length() - 1
                raise NonUniqueMinimum(f"vertex {v}: {best} and {w} are incomparable")
        fresh = bits & ~assigned
        if fresh:
            groups.append((w, fresh))
            assigned |= fresh
        for v in _set_bits(fresh):
            keys[v] = w
    missing = ~assigned & ((1 << graph.num_vertices) - 1)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise NonUniqueMinimum(f"vertex {v} belongs to no family member")
    return keys


def _weak_failures(pairs: set[tuple[int, int]], left: list[Permutation],
                   right: list[Permutation]) -> set[tuple[int, int]]:
    """The pairs (a, b) with left[a] not weakly below right[b]."""
    return {(a, b) for a, b in pairs if not weak_leq(left[a], right[b])}


def _numbered(kappa: list[Permutation]) -> tuple[list[Permutation], list[int]]:
    """The distinct keys in first-seen order, and each vertex's position
    among them."""
    ids: dict[Permutation, int] = {}
    numbers = [ids.setdefault(w, len(ids)) for w in kappa]
    return list(ids), numbers


def verify_key_properties(graph: CrystalGraph, kappa: list[Permutation]) -> CheckReport:
    """Check the four defining properties of the key map plus order
    preservation along every cover edge; kappa is all_keys(graph, family).
    One walk over the edges compares key numbers and keys with the tabled
    products key * s_i, and collects the distinct pairs (kappa(src),
    kappa(dst)), each tested for the order once; the edges are walked again
    only to list the failing ones."""
    e = identity(graph.n + 1)
    keys, number = _numbered(kappa)
    descent_sets = [right_descents(w) for w in keys]
    shifted = [[w.right_mult_gen(i) for i in range(1, graph.n + 1)] for w in keys]
    pairs = set()
    violations = []
    checked = 0
    for v, (out, into) in enumerate(zip(graph.succ, graph.pred)):
        k = number[v]
        descents = descent_sets[k]
        for i, w, u in zip(range(1, graph.n + 1), out, into):
            if w is not None:
                checked += 2  # the chain property here, order preservation below
                kw = number[w]
                pairs.add((k, kw))
                if kw != k and u is not None:
                    violations.append(f"interior of an {i}-chain moved the key at vertex {v}")
                elif kw != k and keys[kw] != shifted[k][i - 1]:
                    violations.append(
                        f"bottom of an {i}-chain: key of F_{i}({v}) is neither "
                        f"kappa(v) nor kappa(v)s_{i}"
                    )
            checked += 1
            if i in descents and u is None:
                violations.append(f"descent {i} of the key of vertex {v} without an incoming edge")
        checked += 1
        if kappa[v] == e and v != 0:
            violations.append(f"identity key at non-minimal vertex {v}")
    failing = _weak_failures(pairs, keys, keys)
    if failing:
        violations += [f"order preservation fails on edge {src} -> {dst}"
                       for src, dst, _ in graph.edges() if (number[src], number[dst]) in failing]
    return CheckReport(checked=checked, violations=violations)


def verify_pop_key_inequality(graph: CrystalGraph, kappa: list[Permutation]) -> CheckReport:
    """key(pop(v)) is weakly below pop(key(v)), for every vertex; kappa is
    all_keys(graph, family). Each distinct pair of sides is compared once."""
    keys, number = _numbered(kappa)
    popped = [coxeter_pop(w) for w in keys]
    pop = _popper(graph)
    below = [number[pop(v)] for v in range(graph.num_vertices)]
    failing = _weak_failures(set(zip(below, number)), keys, popped)
    violations = [
        f"pop/key inequality fails at vertex {v}"
        for v, pair in enumerate(zip(below, number)) if pair in failing
    ]
    return CheckReport(checked=len(below), violations=violations)
