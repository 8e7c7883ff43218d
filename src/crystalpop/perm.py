"""Symmetric-group machinery: weak and Bruhat orders, descents, parabolic
quotients, and longest elements.

A permutation of [m] is stored in one-line notation. Generators are named
by their index: i stands for the adjacent transposition swapping i and i+1,
so generator subsets are sets of integers in [1, m-1].

The order tests read two invariants that each Permutation computes once:

- The inversion bitmask has one bit per value pair a < b in which b stands
  before a. The length is its popcount, and the right weak order is
  containment of these inversion sets: u <= w iff Inv(u) is a subset of
  Inv(w) (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
  Prop. 3.1.3). The left descents are the pairs (i, i+1) in the set.
- The Bruhat rank array r[i, j] = #{a <= i : w(a) >= j}. By the tableau
  criterion (ibid., Thm. 2.1.5), u <= w in Bruhat order iff
  r_u[i, j] <= r_w[i, j] for all i, j. Each entry is stored in unary, so
  the entrywise comparison is one bitwise containment test as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True, order=True)
class Permutation:
    one_line: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.one_line) != list(range(1, len(self.one_line) + 1)):
            raise ValueError(f"not a permutation of [m]: {self.one_line}")

    @property
    def m(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(i) = self(other(i))."""
        return Permutation(tuple(self.one_line[j - 1] for j in other.one_line))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for pos, val in enumerate(self.one_line, start=1):
            inv[val - 1] = pos
        return Permutation(tuple(inv))

    def right_mult_gen(self, i: int) -> "Permutation":
        """self * s_i: swap the entries in positions i and i+1."""
        w = list(self.one_line)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    def left_mult_gen(self, i: int) -> "Permutation":
        """s_i * self: swap the values i and i+1."""
        w = list(self.one_line)
        a, b = w.index(i), w.index(i + 1)
        w[a], w[b] = w[b], w[a]
        return Permutation(tuple(w))

    @cached_property
    def inversion_mask(self) -> int:
        """Bit (a-1)*m + (b-1) is set iff a < b and b stands before a."""
        line = self.one_line
        m = len(line)
        mask = 0
        for pos, b in enumerate(line):
            for a in line[pos + 1:]:
                if a < b:
                    mask |= 1 << ((a - 1) * m + b - 1)
        return mask

    @cached_property
    def bruhat_ranks(self) -> int:
        """The rank array r[i, j] for 1 <= i < m and 2 <= j <= m (the rows
        i = m and the column j = 1 are the same for every permutation).
        Each entry gets a field of m-1 bits whose lowest r[i, j] bits are
        set, so that entrywise <= is bitwise containment."""
        line = self.one_line
        m = len(line)
        counts = [0] * (m + 1)
        packed = 0
        for v in line[:-1]:
            for j in range(2, v + 1):
                counts[j] += 1
            for c in counts[2:]:
                packed = packed << (m - 1) | (1 << c) - 1
        return packed

    def __str__(self):
        if self.m <= 9:
            return "".join(str(v) for v in self.one_line)
        return ",".join(str(v) for v in self.one_line)


def identity(m: int) -> Permutation:
    return Permutation(tuple(range(1, m + 1)))


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    if "," in text:
        return Permutation(tuple(int(tok) for tok in text.split(",")))
    return Permutation(tuple(int(ch) for ch in text))


def all_permutations(m: int):
    """All of S_m in lexicographic one-line order."""
    for word in itertools.permutations(range(1, m + 1)):
        yield Permutation(word)


def length(w: Permutation) -> int:
    """Coxeter length = inversion count."""
    return w.inversion_mask.bit_count()


def right_descents(w: Permutation) -> frozenset[int]:
    line = w.one_line
    return frozenset(i for i in range(1, len(line)) if line[i - 1] > line[i])


def left_descents(w: Permutation) -> frozenset[int]:
    """The i such that i+1 stands before i: the inverted pairs (i, i+1)."""
    mask, m = w.inversion_mask, w.m
    return frozenset(i for i in range(1, m) if mask >> ((i - 1) * m + i) & 1)


def weak_leq(u: Permutation, w: Permutation) -> bool:
    """Right weak order: u <= w iff Inv(u) is contained in Inv(w)."""
    if u.m != w.m:
        raise ValueError("permutations act on different sets")
    return not u.inversion_mask & ~w.inversion_mask


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order: the rank array of u is entrywise at most that of w."""
    if u.m != w.m:
        raise ValueError("permutations act on different sets")
    return not u.bruhat_ranks & ~w.bruhat_ranks


def longest_element(m: int) -> Permutation:
    return Permutation(tuple(range(m, 0, -1)))


def longest_parabolic(gens: frozenset[int] | set[int], m: int) -> Permutation:
    """Longest element of the parabolic subgroup generated by the given
    adjacent transpositions: reverse each maximal window of consecutive
    generators."""
    line = list(range(1, m + 1))
    i = 1
    while i < m:
        if i in gens:
            start = i
            while i in gens:
                i += 1
            line[start - 1 : i] = reversed(line[start - 1 : i])
        else:
            i += 1
    return Permutation(tuple(line))


def min_coset_rep(w: Permutation, gens: frozenset[int] | set[int]) -> Permutation:
    """Minimum-length representative of the left coset W_J w. W_J acts on
    values and permutes each block {i, ..., k+1}, for a maximal run i..k of
    generators in J, freely: the representative writes each block's values
    in increasing order of position. Generators outside [1, m-1] are ignored."""
    m = w.m
    block = list(range(m + 1))  # block[a] = the smallest value in a's block
    for i in sorted(gens):
        if 0 < i < m:
            block[i + 1] = block[i]
    nxt = list(range(m + 1))  # nxt[b] = the next value block b hands out
    line = []
    for a in w.one_line:
        b = block[a]
        line.append(nxt[b])
        nxt[b] += 1
    return Permutation(tuple(line))


def parabolic_quotient(gens: frozenset[int] | set[int], m: int) -> list[Permutation]:
    """All w in S_m with left descents avoiding the generator set, listed in
    BFS layers of the right weak order (by length, then one-line order)."""
    gens = frozenset(gens)
    out = [w for w in all_permutations(m) if not (left_descents(w) & gens)]
    out.sort(key=lambda w: (length(w), w.one_line))
    return out


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_k) with w = s_{i_1} ... s_{i_k}."""
    word = []
    cur = w
    while True:
        desc = right_descents(cur)
        if not desc:
            break
        i = min(desc)
        cur = cur.right_mult_gen(i)
        word.append(i)
    word.reverse()
    return tuple(word)


def coxeter_pop(w: Permutation) -> Permutation:
    """Multiply on the right by the longest element of the parabolic
    generated by the right descent set (its own inverse)."""
    return w * longest_parabolic(right_descents(w), w.m)


def descents_commute(w: Permutation) -> bool:
    """True iff no two right descents are adjacent (no double descent)."""
    desc = right_descents(w)
    return all(i + 1 not in desc for i in desc)


@dataclass
class LemmaReport:
    """Outcome of the exhaustive weak/Bruhat order compatibility checks."""

    m: int
    checked: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_section3_lemmas(m: int) -> LemmaReport:
    """Exhaustively check, over S_m, the quotient monotonicity of the weak
    order, Bruhat monotonicity of pop under commuting descents, the
    pop/quotient exchange inequality, and the sorting time of the maximal
    quotient elements (h-1 pops reach the identity, h-2 do not, and every
    intermediate element has pairwise commuting descents)."""
    if m < 1:
        raise ValueError(f"the lemma suite needs m >= 1, got {m}")
    perms = list(all_permutations(m))
    gens = list(range(1, m))
    subsets = [
        frozenset(c)
        for r in range(m)
        for c in itertools.combinations(gens, r)
    ]
    pop = {w: coxeter_pop(w) for w in perms}
    violations = []
    checked = 0

    weak_pairs = [
        (y, z) for y in perms for z in perms if weak_leq(y, z)
    ]
    for j in subsets:
        rep = {w: min_coset_rep(w, j) for w in perms}
        for y, z in weak_pairs:
            checked += 1
            if not weak_leq(rep[y], rep[z]):
                violations.append(f"quotient monotonicity fails: J={set(j)} y={y} z={z}")
        for w in perms:
            checked += 1
            if not weak_leq(rep[pop[w]], pop[rep[w]]):
                violations.append(f"pop/quotient exchange fails: J={set(j)} w={w}")

    commuting = [y for y in perms if descents_commute(y)]
    for y in commuting:
        py = pop[y]
        for x in perms:
            if bruhat_leq(x, y):
                checked += 1
                if not bruhat_leq(pop[x], py):
                    violations.append(f"Bruhat pop monotonicity fails: x={x} y={y}")

    full = frozenset(gens)
    for s in gens:
        j = full - {s}
        w = min_coset_rep(longest_element(m), j)
        trajectory = [w]
        while length(trajectory[-1]) > 0:
            trajectory.append(coxeter_pop(trajectory[-1]))
        checked += 1
        if len(trajectory) - 1 != m - 1:
            violations.append(
                f"sorting time of quotient-maximal element is {len(trajectory) - 1}, "
                f"expected {m - 1} (s={s})"
            )
        for v in trajectory:
            checked += 1
            if not descents_commute(v):
                violations.append(f"non-commuting descents along orbit of s={s}: {v}")
    return LemmaReport(m=m, checked=checked, violations=violations)
