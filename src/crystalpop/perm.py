"""Symmetric-group machinery: weak and Bruhat orders, descents, parabolic
quotients and the Coxeter pop.

A permutation of [m] is stored in one-line notation. Generators are named
by their index: i stands for the adjacent transposition swapping i and i+1,
so generator subsets are sets of integers in [1, m-1].

The order tests read two invariants, each computed by one function on a
one-line tuple, which a Permutation calls once and caches:

- The inversion bitmask has one bit per value pair a < b in which b stands
  before a. The length is its popcount, and the right weak order is
  containment of these inversion sets: u <= w iff Inv(u) is a subset of
  Inv(w) (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
  Prop. 3.1.3).
- The Bruhat rank array r[i, j] = #{a <= i : w(a) >= j}. By the tableau
  criterion (ibid., Thm. 2.1.5), u <= w in Bruhat order iff
  r_u[i, j] <= r_w[i, j] for all i, j. Each entry is stored in unary, so
  the entrywise comparison is one bitwise containment test as well.

The exhaustive lemma suite works on one-line tuples indexed in
lexicographic order, and builds a Permutation only to name a violation:
the invariants, the pop, the commuting-descent test and the sorting-time
walk run on the tuples, and the walk starts from each w0^J as the coset
tables give it.
Weak-order monotonicity is tested on covers only (a map preserves the
order iff it preserves every cover). The coset representatives of each
generator subset come from those of its parent subset by a walk along left
descents, which reduces to one popcount and one index shift per distinct
parent value. Sets of permutations are ints with one bit per permutation,
and one containment query answers both orders: for each bit b of an
invariant the suite keeps the set of permutations having b, and the z
whose invariant lies within y's are the complement of the OR of those sets
over the bits y lacks. The Bruhat lower set reads the rank arrays, where
the OR needs one set per entry, that of the entry's lowest lacking bit;
the weak up-set reads the inversions each permutation lacks,
Inv(w0) - Inv(w). Up-sets are built one at a time and dropped, so no
m!^2/8-byte table is kept; the cover tests grow as 2^(m-2) (m-1) m!, and
the suite stops at MAX_LEMMA_M, the largest size measured.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property

from .values import Ordered, Value

MAX_LEMMA_M = 8


class Permutation(Ordered):
    def __init__(self, one_line: tuple[int, ...]):
        if sorted(one_line) != list(range(1, len(one_line) + 1)):
            raise ValueError(f"not a permutation of [m]: {one_line}")
        vars(self).update(one_line=one_line)

    @property
    def m(self) -> int:
        return len(self.one_line)

    @cached_property
    def inversion_mask(self) -> int:
        return _inversion_mask(self.one_line)

    @cached_property
    def bruhat_ranks(self) -> int:
        return _bruhat_ranks(self.one_line)

    def __str__(self):
        if self.m <= 9:
            return "".join(str(v) for v in self.one_line)
        return ",".join(str(v) for v in self.one_line)


def _inversion_mask(line: tuple[int, ...]) -> int:
    """Bit (a-1)*m + (b-1) is set iff a < b and b stands before a. Read
    right to left, later holds bit (a-1)*m for each value a already passed,
    and the ones below b's stride, shifted by b-1, are b's inversions."""
    m = len(line)
    mask = later = 0
    for b in reversed(line):
        stride = (b - 1) * m
        mask |= (later & (1 << stride) - 1) << (b - 1)
        later |= 1 << stride
    return mask


def _bruhat_ranks(line: tuple[int, ...]) -> int:
    """The rank array r[i, j] for 1 <= i < m and 2 <= j <= m (the rows
    i = m and the column j = 1 are the same for every permutation). Each
    entry gets a field of m-1 bits whose lowest r[i, j] bits are set, so
    that entrywise <= is bitwise containment; row i = 1 is the highest, and
    within a row j = 2 is the highest field. Row i is row i-1 with the
    fields j <= w(i) grown by one bit: shifted up, with bit 0 set."""
    width = len(line) - 1
    if width < 1:
        return 0  # S_0 and S_1 have no entries
    lows = ((1 << width * width) - 1) // ((1 << width) - 1)  # bit 0 of each field of a row
    row = packed = 0
    for v in line[:-1]:
        grown = (1 << width * (v - 1)) - 1 << width * (width + 1 - v)  # the fields j <= v
        row |= (row << 1 | lows) & grown
        packed = packed << width * width | row
    return packed


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        return Permutation(tuple(int(tok) for tok in text.split(",")))
    return Permutation(tuple(int(ch) for ch in text))


def permutation_lines(m: int) -> itertools.permutations:
    """All of S_m as one-line tuples, in lexicographic order."""
    return itertools.permutations(range(1, m + 1))


def weak_leq(u: Permutation, w: Permutation) -> bool:
    """Right weak order: u <= w iff Inv(u) is contained in Inv(w)."""
    if len(u.one_line) != len(w.one_line):
        raise ValueError("permutations act on different sets")
    return not u.inversion_mask & ~w.inversion_mask


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Bruhat order: the rank array of u is entrywise at most that of w."""
    if len(u.one_line) != len(w.one_line):
        raise ValueError("permutations act on different sets")
    return not u.bruhat_ranks & ~w.bruhat_ranks


def parabolic_quotient(gens: frozenset[int] | set[int], m: int) -> list[Permutation]:
    """All w in S_m with left descents avoiding the generator set, listed in
    BFS layers of the right weak order (by length, then one-line order),
    climbed from the identity: w * s_i swaps an ascent a = w(i) < w(i+1) = b
    and adds the left descent a iff b = a+1. Left descents only grow going
    up, so the quotient is a lower set and the climb reaches all of it.
    Generators outside [1, m-1] are ignored."""
    layers = [[tuple(range(1, m + 1))]]
    while layers[-1]:
        above = set()
        for line in layers[-1]:
            for i in range(1, m):
                a, b = line[i - 1], line[i]
                if a < b and not (b == a + 1 and a in gens):
                    above.add(line[:i - 1] + (b, a) + line[i + 1:])
        layers.append(sorted(above))
    return [Permutation(line) for layer in layers for line in layer]


def coxeter_pop(w: Permutation) -> Permutation:
    """w * w0(DesR(w)), with w0(J) the longest element of the parabolic
    subgroup generated by J. A maximal run i..k of consecutive right
    descents is a maximal descending run w(i) > ... > w(k+1), and the right
    factor w0(J) reverses positions i..k+1, so the product is: reverse each
    maximal descending run."""
    return Permutation(_pop_line(w.one_line))


def _pop_line(line: tuple[int, ...]) -> tuple[int, ...]:
    """coxeter_pop on a one-line tuple."""
    out = []
    start = 0
    for k in range(1, len(line)):
        if line[k - 1] < line[k]:
            out += line[start:k][::-1]
            start = k
    out += line[start:][::-1]
    return tuple(out)


def _descents_commute(line: tuple[int, ...]) -> bool:
    """True iff no two right descents are adjacent: no w(i) > w(i+1) > w(i+2)."""
    desc = list(map(operator.gt, line, line[1:]))
    return not any(map(operator.and_, desc, desc[1:]))


class CheckReport(Value):
    """Outcome of a property suite: how many checks ran and what failed."""

    def __init__(self, checked: int, violations: list[str]):
        self.checked, self.violations = checked, violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _set_bits(v: int) -> itertools.compress:
    """An iterator over the positions of the set bits of v >= 0, from low to
    high, read from one scan of its binary digits (a zero byte is false)."""
    return itertools.compress(itertools.count(), bin(v)[:1:-1].encode().replace(b"0", b"\0"))


# _DIGITS[t] maps a byte to the digit b"1" if its bit t is set, else b"0".
_DIGITS = [bytes(48 + (x >> t & 1) for x in range(256)) for t in range(8)]


def _columns(values: list[int]) -> dict[int, int]:
    """For each bit b set in some value, the set of i whose values[i] has b,
    as an int with bit i for index i. The values are written as bytes, last
    one first (int reads its first digit as the top bit), so byte j of every
    value is one strided slice, which _DIGITS turns into the '0'/'1' digits
    of each of its bits."""
    size = (max(values).bit_length() + 7) // 8
    data = b"".join([v.to_bytes(size, "little") for v in reversed(values)])
    cols = {}
    for j in range(size):
        column = data[j::size]
        for t in range(8):
            if col := int(column.translate(_DIGITS[t]), 2):
                cols[8 * j + t] = col
    return cols


def _lacking(cols: dict[int, int], packed: int) -> int:
    """The union of cols[b] over the bits b missing from packed. For cols =
    _columns(values), its complement is the set of i with values[i] within
    packed."""
    out = 0
    for b, col in cols.items():
        if not packed >> b & 1:
            out |= col
    return out


def _unary_lacking(cols: dict[int, int], packed: int, lows: int, fields: int) -> int:
    """_lacking(cols, packed) for values made of unary fields, each holding
    a count c as its c lowest bits, with lows the bit 0 of every field and
    fields all of their bits. A value with bit t+1 of a field has its bit t,
    so cols[t+1] lies within cols[t] there, and the OR over the bits a field
    of packed lacks is the column of the lowest of them, which is the field's
    bit of (packed << 1 | lows) & ~packed. A full field's top bit shifts onto
    bit 0 of the field above, which packed either has or lacks as that
    field's own lowest lacking bit; one past the top field is outside
    fields."""
    return _lacking(cols, fields ^ ((packed << 1 | lows) & ~packed & fields))


def weak_covers(lines: list[tuple[int, ...]],
                index: dict[tuple[int, ...], int]) -> tuple[list[int], list[int]]:
    """The covers y < y*s_i of the right weak order, one for each ascent
    y(i) < y(i+1) (Bjorner and Brenti, Ch. 3), over all of S_m given as
    one-line tuples with their index: the list of y and the list of y*s_i,
    in order of y, then i."""
    lower, upper = [], []
    for y, line in enumerate(lines):
        for i in range(1, len(line)):
            if line[i - 1] < line[i]:
                lower.append(y)
                upper.append(index[line[:i - 1] + (line[i], line[i - 1]) + line[i + 1:]])
    return lower, upper


def coset_rep_tables(lines: list[tuple[int, ...]], masks: list[int]):
    """Yield (J, rep) for each generator subset J of S_m, by size, then in
    lexicographic order, where rep[w] is the index of the minimum-length
    representative of the left coset W_J w, lines is all of S_m in
    lexicographic order and masks their inversion masks. W_J permutes the
    values of each block {a, ..., k+1}, for a maximal run a..k of J, so the
    representative writes each block's values in increasing order of
    position.

    For J' = J - {k}, k = max J, W_J' w lies in W_J w, so rep_J = rep_J o
    rep_J': the step below runs only on the distinct values x of the table
    for J', and the rest is a gather. Only the previous size's tables are
    kept, and of those only the ones a larger J extends (k < m-1).

    The step is a walk by left descents (Bjorner and Brenti, Sec. 2.4).
    Let a..k be the run of J ending at k. x writes the values a..k in
    increasing order of position, and k+1 stands at some position q, so
    only k+1 is out of place in its J-block {a, ..., k+1}. For j = k,
    k-1, ..., while j+1 stands before j, x becomes s_j x (the values j
    and j+1 swapped): a left descent in J, so it stays in W_J x and gets
    shorter, and the walk stops once the block is sorted, after one step
    for each of the t values of a..k standing after k+1 (t is a popcount of
    x's inversion mask). Each step swaps j+1, at q, with a j after it,
    which lowers the Lehmer digit at q (the later values smaller than the
    one at q) by one and leaves every other digit as it is; so it lowers
    the lexicographic index by (m-1-q)!, and rep_J(x) = x - t (m-1-q)!.
    The empty J has the identity table, whose ints every table shares."""
    m = len(lines[0])
    factorial = [math.factorial(m - 1 - q) for q in range(m)]
    ids = list(range(len(lines)))
    level = {(): ids}  # the empty set is its own parent
    for r in range(m):
        below, level = level, {}
        for c in itertools.combinations(range(1, m), r):
            rep = parent = below[c[:-1]]
            if c:
                k = a = c[-1]
                while a - 1 in c:
                    a -= 1
                after = sum(1 << (j - 1) * m + k for j in range(a, k + 1))  # inversions (j, k+1)
                image = {}
                for x in set(parent):
                    shift = factorial[lines[x].index(k + 1)] * (masks[x] & after).bit_count()
                    image[x] = ids[x - shift]
                rep = list(map(image.__getitem__, parent))
            if not c or c[-1] < m - 1:
                level[c] = rep
            yield frozenset(c), rep


def verify_section3_lemmas(m: int) -> CheckReport:
    """Exhaustively check, over S_m, the quotient monotonicity of the weak
    order, Bruhat monotonicity of pop under commuting descents, the
    pop/quotient exchange inequality, and the sorting time of the maximal
    quotient elements (h-1 pops reach the identity, h-2 do not, and every
    intermediate element has pairwise commuting descents). S_m is indexed
    in permutation_lines order, and both orders use the one containment
    query of the module docstring: _columns gives the sets C_b, and
    _lacking the OR of C_b over the bits y lacks.

    - Quotient monotonicity. A map between posets preserves the order iff
      it preserves every cover, so for each J the suite tests
      Inv(rep(y)) within Inv(rep(y*s_i)) over every right-weak cover (all of
      S_m, not only the quotient, and nothing assumes rep is a true coset
      representative). Only when a cover fails does it scan every y for
      that J: Inv(y) lies within Inv(z) iff out(z) lies within out(y),
      with out(w) = Inv(w0) - Inv(w) the inversions w lacks, so the up-set
      U(y) is the query on out (Prop. 3.1.3), and the failures at y are the
      z in U(y) with Inv(rep(y)) not within Inv(rep(z)).
    - Bruhat order. The lower set L(y) is the query on the rank arrays
      (Thm. 2.1.5), and L_E(p), the x with pop(x) <= p, the query on the
      rank arrays of pop(x); monotonicity of pop at y is
      L(y) & ~L_E(pop(y)) == 0.

    Each pair (y, z) still counts as one check: checked adds the number of
    weak pairs per J and the sizes of the lower sets. A failing set is
    decoded from its low bit up, which is the pairwise scan's order, so
    counts and messages are those of the pairwise scan. The weak part makes
    (m-1)/2 m! cover tests per J where a pairwise scan makes m!^2 order
    tests; the coset representatives come from coset_rep_tables, whose
    tables for |J| = m-2 also give the sorting-time walk its start, w0^J,
    as the representative of w0, the last line."""
    if m < 1:
        raise ValueError(f"the lemma suite needs m >= 1, got {m}")
    if m > MAX_LEMMA_M:
        raise ValueError(
            f"the lemma suite needs m <= {MAX_LEMMA_M}, got {m}: it makes "
            f"2^(m-2) (m-1) m! weak-cover tests, and m = {MAX_LEMMA_M} is the "
            f"largest size measured"
        )
    lines = list(permutation_lines(m))
    index = {line: i for i, line in enumerate(lines)}
    masks = list(map(_inversion_mask, lines))
    ranks = list(map(_bruhat_ranks, lines))
    pop = list(map(index.__getitem__, map(_pop_line, lines)))
    everything = (1 << len(lines)) - 1
    universe = masks[-1]  # w0, the last line, has every inversion
    outside = [universe ^ mask for mask in masks]
    violations = []
    checked = 0

    outside_cols = _columns(outside)
    # one up-set at a time, each dropped once counted
    weak_pairs = sum((everything & ~_lacking(outside_cols, gap)).bit_count() for gap in outside)
    lower, upper = weak_covers(lines, index)
    tops = {}  # w0^J, the last line's representative, for |J| = m-2
    for j, rep in coset_rep_tables(lines, masks):
        if len(j) == m - 2:
            tops[j] = lines[rep[-1]]
        checked += weak_pairs
        held = list(map(masks.__getitem__, rep))  # Inv(rep(y))
        missed = list(map(outside.__getitem__, rep))  # the inversions rep(y) lacks
        if any(map(operator.and_, map(held.__getitem__, lower), map(missed.__getitem__, upper))):
            for y, gap in enumerate(outside):
                for z in _set_bits(everything & ~_lacking(outside_cols, gap)):
                    if held[y] & missed[z]:
                        violations.append(f"quotient monotonicity fails: J={set(j)} "
                                          f"y={Permutation(lines[y])} z={Permutation(lines[z])}")
        # Inv(rep(pop(w))) within Inv(pop(rep(w))), for each w
        exchange = list(map(operator.and_, map(held.__getitem__, pop),
                            map(outside.__getitem__, map(pop.__getitem__, rep))))
        checked += len(exchange)
        if any(exchange):
            for w, bad in enumerate(exchange):
                if bad:
                    violations.append(
                        f"pop/quotient exchange fails: J={set(j)} w={Permutation(lines[w])}")

    width = m - 1
    fields = (1 << width ** 3) - 1  # every bit of the (m-1)^2 rank fields
    lows = fields // ((1 << width) - 1 or 1)  # bit 0 of each
    rank_cols = _columns(ranks)
    pop_rank_cols = _columns([ranks[p] for p in pop])
    for y, commutes in enumerate(map(_descents_commute, lines)):
        if not commutes:
            continue
        lower_set = everything & ~_unary_lacking(rank_cols, ranks[y], lows, fields)
        checked += lower_set.bit_count()
        for x in _set_bits(lower_set & _unary_lacking(pop_rank_cols, ranks[pop[y]], lows, fields)):
            violations.append(f"Bruhat pop monotonicity fails: "
                              f"x={Permutation(lines[x])} y={Permutation(lines[y])}")

    full = frozenset(range(1, m))
    for s in range(1, m):
        trajectory = [tops[full - {s}]]
        while trajectory[-1] != lines[0] and len(trajectory) <= m:
            trajectory.append(_pop_line(trajectory[-1]))
        checked += 1
        steps = len(trajectory) - 1 if trajectory[-1] == lines[0] else f"over {m}"
        if steps != m - 1:
            violations.append(f"sorting time of quotient-maximal element is {steps}, "
                              f"expected {m - 1} (s={s})")
        for v in trajectory:
            checked += 1
            if not _descents_commute(v):
                violations.append(f"non-commuting descents along orbit of s={s}: "
                                  f"{Permutation(v)}")
    return CheckReport(checked=checked, violations=violations)
