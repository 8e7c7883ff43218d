"""The key map from a crystal to its parabolic quotient.

The carrier is the family of lowering-closure subsets: starting from the
singleton containing the minimum, the subset for w is the closure of the
subset for any lower cover w s_i under F_i; the cover at w's last descent
is closed, as a right-to-left walk over w's Bruhat lower covers meets it
first. The same pass embeds the quotient: the vertex u_w is S_i(u_{w s_i})
for every such cover, S_i the crystal's Weyl-group reflection (Kashiwara,
Duke 1993). The key of a vertex is then the Bruhat-order minimum among
the quotient elements whose subset contains it (the weak order does not
suffice: the membership filter can have two weak-minimal elements, yet its
Bruhat minimum is unique).
The defining properties of the key map (how it interacts with E_i/F_i and
with descents) are checked wholesale by verify_key_properties; any
violation there falsifies the construction rather than the caller.

Both key checks number the distinct keys once, by one-line tuple in
first-seen order, and compare key numbers, read from per-key tables built
on the tuples; each distinct pair of keys is tested for the weak order
once, and no Permutation is built per vertex or per key s_i. The family
finds each lower cover once, by its swapped one-line tuple, too.
"""

from __future__ import annotations

from .crystal import CrystalGraph, stabilizer_colors, weyl_reflect
from .perm import (
    CheckReport, Permutation, _set_bits, bruhat_leq, coxeter_pop, parabolic_quotient, weak_leq,
)
from .pop import _popper
from .values import Value


class InconsistentFamily(RuntimeError):
    """Two cover paths to the same quotient element reflect to different
    vertices, or a Bruhat lower cover's subset (a weak cover's among them)
    does not lie inside the member."""


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
    shape, with the embedded quotient. Subsets grow with the Bruhat order,
    and the Bruhat lower covers of w in the quotient are w with positions
    a < b swapped, where w(a) > w(b) and no position between holds a value
    between them; b = a + 1 gives the weak covers. One walk meets each cover
    once, by its swapped one-line tuple, taking a from the right. w rises
    after its last descent i, so no later position starts a cover, and the
    first cover met is w s_i. B_w is the F_i-closure of B_{w s_i} for every
    descent i (Kashiwara, Duke 1993), so that cover is closed, and u_w is
    S_i(u_{w s_i}). Every later cover's subset must lie inside B_w, and a
    weak one must also reflect to u_w; the closures of the other covers are
    not compared, and the key checks catch a corrupted subset that changes
    a key. Members are built by length, so each cover is built before w,
    and a subset that loses a vertex and no key still fails. A mismatch
    raises InconsistentFamily."""
    order = parabolic_quotient(stabilizer_colors(graph.shape), graph.n + 1)
    index = {w.one_line: k for k, w in enumerate(order)}
    members, extremal = [1 << 0], [0]  # in quotient order, the identity's first
    for w in order[1:]:
        line, bits = w.one_line, 0  # bits: B_w, once its first cover is closed
        for a in reversed(range(len(line))):
            top, floor = line[a], 0  # floor: the largest value below top between a and b
            for b in range(a + 1, len(line)):
                if floor < line[b] < top:
                    floor = line[b]
                    k = index.get(line[:a] + (line[b],) + line[a + 1:b] + (top,) + line[b + 1:])
                    if k is None:
                        continue
                    if not bits:
                        members.append(bits := _closure(graph.succ, members[k], b))
                        extremal.append(weyl_reflect(graph, extremal[k], b))
                    elif members[k] & ~bits:
                        raise InconsistentFamily(f"{w} covers {order[k]} in the Bruhat order, "
                                                 f"but {order[k]}'s subset is not inside {w}'s")
                    elif b == a + 1 and weyl_reflect(graph, extremal[k], b) != extremal[-1]:
                        raise InconsistentFamily(f"cover paths disagree at {w} (color {b})")
    return DemazureFamily(members=dict(zip(order, members)), extremal=dict(zip(order, extremal)))


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


def _numbered(kappa: list[Permutation]):
    """The distinct keys numbered in first-seen order: a dict from each one's
    one-line tuple to its number, one Permutation of kappa for each, and each
    vertex's number. Tuples hash in C, where a Permutation calls __hash__."""
    ids: dict[tuple[int, ...], int] = {}
    numbers = [ids.setdefault(w.one_line, len(ids)) for w in kappa]
    return ids, list(dict(zip(numbers, kappa)).values()), numbers


def verify_key_properties(graph: CrystalGraph, kappa: list[Permutation]) -> CheckReport:
    """Check the four defining properties of the key map plus order
    preservation along every cover edge; kappa is all_keys(graph, family).
    One walk over the edges compares key numbers, read from two per-key
    tables: the right-descent bitmask (the identity is the key with none)
    and, for each color i, the number of key * s_i, or -1 if that is no
    key. It collects the distinct pairs (kappa(src), kappa(dst)), each
    tested for the order once; the edges are walked again only to list the
    failing ones. checked is 2E + V(n+1): per edge its chain property and
    its order, per vertex one descent test per color and the identity test."""
    ids, keys, number = _numbered(kappa)
    n = graph.n
    descents = [sum(1 << i for i in range(n) if line[i] > line[i + 1]) for line in ids]
    shifted = [[ids.get(line[:i] + (line[i + 1], line[i]) + line[i + 2:], -1) for i in range(n)]
               for line in ids]
    pairs = set()
    violations = []
    edges = 0
    for v, (out, into) in enumerate(zip(graph.succ, graph.pred)):
        k = number[v]
        mask = descents[k]
        for i, w, u, s in zip(range(1, n + 1), out, into, shifted[k]):
            if w is not None:
                edges += 1
                kw = number[w]
                pairs.add((k, kw))
                if kw != k and u is not None:
                    violations.append(f"interior of an {i}-chain moved the key at vertex {v}")
                elif kw != k and kw != s:
                    violations.append(f"bottom of an {i}-chain: key of F_{i}({v}) is neither "
                                      f"kappa(v) nor kappa(v)s_{i}")
            if u is None and mask >> i - 1 & 1:
                violations.append(f"descent {i} of the key of vertex {v} without an incoming edge")
        if not mask and v:
            violations.append(f"identity key at non-minimal vertex {v}")
    failing = _weak_failures(pairs, keys, keys)
    if failing:
        violations += [f"order preservation fails on edge {src} -> {dst}"
                       for src, dst, _ in graph.edges() if (number[src], number[dst]) in failing]
    return CheckReport(checked=2 * edges + len(number) * (n + 1), violations=violations)


def verify_pop_key_inequality(graph: CrystalGraph, kappa: list[Permutation]) -> CheckReport:
    """key(pop(v)) is weakly below pop(key(v)), for every vertex; kappa is
    all_keys(graph, family). The keys are numbered as for
    verify_key_properties, coxeter_pop runs once per distinct key, and each
    distinct pair of sides is compared once; checked is V."""
    _, keys, number = _numbered(kappa)
    popped = [coxeter_pop(w) for w in keys]
    pop = _popper(graph)
    below = [number[pop(v)] for v in range(len(number))]
    failing = _weak_failures(set(zip(below, number)), keys, popped)
    violations = [f"pop/key inequality fails at vertex {v}"
                  for v, pair in enumerate(zip(below, number)) if pair in failing]
    return CheckReport(checked=len(below), violations=violations)
