"""The key map from a crystal to its parabolic quotient.

The carrier is the family of lowering-closure subsets: starting from the
singleton containing the minimum, the subset for w is the closure of the
subset for any lower cover w s_i under F_i. The key of a vertex is then the
Bruhat-order minimum among the quotient elements whose subset contains it
(the weak order does not suffice: the membership filter can have two
weak-minimal elements, yet its Bruhat minimum is unique).
The defining properties of the key map (how it interacts with E_i/F_i and
with descents) are checked wholesale by verify_key_properties; any
violation there falsifies the construction rather than the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crystal import CrystalGraph, stabilizer_colors
from .perm import (
    Permutation,
    bruhat_leq,
    coxeter_pop,
    identity,
    length,
    parabolic_quotient,
    right_descents,
    weak_leq,
)
from .pop import pop_crystal


class InconsistentFamily(RuntimeError):
    """Two cover paths to the same quotient element yield different sets."""


class NonUniqueMinimum(RuntimeError):
    """The membership filter of some vertex has no unique minimum."""


@dataclass
class DemazureFamily:
    """Vertex bitsets indexed by the parabolic quotient, listed in weak-order
    BFS layers (by length, then one-line order)."""

    order: list[Permutation]
    members: dict[Permutation, int]


def _closure(graph: CrystalGraph, bits: int, i: int) -> int:
    """Close a vertex bitset under the lowering operator of one color."""
    frontier = bits
    while frontier:
        v = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        w = graph.succ[v][i - 1]
        if w is not None and not bits >> w & 1:
            bits |= 1 << w
            frontier |= 1 << w
    return bits


def build_demazure_family(graph: CrystalGraph) -> DemazureFamily:
    """Build the closure family over the quotient by the stabilizer of the
    shape. Every lower cover of an element is used and the results must
    agree; a mismatch raises InconsistentFamily."""
    kset = stabilizer_colors(graph.shape)
    order = parabolic_quotient(kset, graph.n + 1)
    members: dict[Permutation, int] = {identity(graph.n + 1): 1 << 0}
    for w in order:
        if length(w) == 0:
            continue
        value = None
        for i in sorted(right_descents(w)):
            below = w.right_mult_gen(i)
            closed = _closure(graph, members[below], i)
            if value is None:
                value = closed
            elif value != closed:
                raise InconsistentFamily(
                    f"cover paths disagree at {w} (color {i})"
                )
        members[w] = value  # type: ignore[assignment]
    return DemazureFamily(order=order, members=members)


def key_map(graph: CrystalGraph, family: DemazureFamily, v: int) -> Permutation:
    """Bruhat-order minimum of the quotient elements whose subset contains v."""
    candidates = [w for w in family.order if family.members[w] >> v & 1]
    if not candidates:
        raise NonUniqueMinimum(f"vertex {v} belongs to no family member")
    best = candidates[0]  # family.order is sorted by length
    for w in candidates[1:]:
        if not bruhat_leq(best, w):
            raise NonUniqueMinimum(f"vertex {v}: {best} and {w} are incomparable")
    return best


def all_keys(graph: CrystalGraph, family: DemazureFamily) -> list[Permutation]:
    """key_map of every vertex, from one pass over family.order. The first
    member containing a vertex is its candidate key (the order is by
    length); every later member containing it must lie Bruhat-above that
    candidate. Vertices are grouped by candidate, so each pair of members
    is compared at most once."""
    keys: list[Permutation] = [None] * graph.num_vertices  # type: ignore[list-item]
    groups: list[tuple[Permutation, int]] = []  # (key, bitset of its vertices)
    assigned = 0
    for w in family.order:
        bits = family.members[w]
        for best, group in groups:
            shared = bits & group
            if shared and not bruhat_leq(best, w):
                v = (shared & -shared).bit_length() - 1
                raise NonUniqueMinimum(f"vertex {v}: {best} and {w} are incomparable")
        fresh = bits & ~assigned
        if fresh:
            groups.append((w, fresh))
            assigned |= fresh
        while fresh:
            keys[(fresh & -fresh).bit_length() - 1] = w
            fresh &= fresh - 1
    missing = ~assigned & ((1 << graph.num_vertices) - 1)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise NonUniqueMinimum(f"vertex {v} belongs to no family member")
    return keys


@dataclass
class KeyReport:
    checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_key_properties(graph: CrystalGraph, family: DemazureFamily) -> KeyReport:
    """Check the four defining properties of the key map plus order
    preservation along every cover edge."""
    kappa = all_keys(graph, family)
    e = identity(graph.n + 1)
    violations = []
    checked = 0
    for v in range(graph.num_vertices):
        descents = right_descents(kappa[v])
        for i in range(1, graph.n + 1):
            has_up = graph.succ[v][i - 1] is not None
            has_down = graph.pred[v][i - 1] is not None
            if has_up:
                w = graph.succ[v][i - 1]
                checked += 1
                if has_down:
                    if kappa[w] != kappa[v]:
                        violations.append(
                            f"interior of an {i}-chain moved the key at vertex {v}"
                        )
                else:
                    if kappa[w] not in (kappa[v], kappa[v].right_mult_gen(i)):
                        violations.append(
                            f"bottom of an {i}-chain: key of F_{i}({v}) is neither "
                            f"kappa(v) nor kappa(v)s_{i}"
                        )
            checked += 1
            if i in descents and not has_down:
                violations.append(
                    f"descent {i} of the key of vertex {v} without an incoming edge"
                )
        checked += 1
        if kappa[v] == e and v != 0:
            violations.append(f"identity key at non-minimal vertex {v}")
    for src, dst, _ in graph.edges():
        checked += 1
        if not weak_leq(kappa[src], kappa[dst]):
            violations.append(f"order preservation fails on edge {src} -> {dst}")
    return KeyReport(checked=checked, violations=violations)


def verify_pop_key_inequality(graph: CrystalGraph, family: DemazureFamily) -> KeyReport:
    """key(pop(v)) is weakly below pop(key(v)), for every vertex."""
    kappa = all_keys(graph, family)
    violations = []
    checked = 0
    for v in range(graph.num_vertices):
        checked += 1
        lhs = kappa[pop_crystal(graph, v)]
        rhs = coxeter_pop(kappa[v])
        if not weak_leq(lhs, rhs):
            violations.append(f"pop/key inequality fails at vertex {v}")
    return KeyReport(checked=checked, violations=violations)
