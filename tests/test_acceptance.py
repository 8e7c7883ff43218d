"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import pytest

from crystalpop.classifier import (
    bowtie_A,
    bowtie_B,
    bowtie_E,
    classification_sweep,
    locate,
    nojoin_D,
    predict_lattice,
    sweep_pairs,
)
from crystalpop.crystal import (
    embed_parabolic_quotient,
    generate_crystal,
    lowering_F,
)
from crystalpop.key import (
    build_demazure_family,
    verify_key_properties,
    verify_pop_key_inequality,
)
from crystalpop.perm import (
    all_permutations,
    coxeter_pop,
    verify_section3_lemmas,
)
from crystalpop.pop import (
    is_poppable,
    max_orbit_size,
    orbit,
    pop_crystal,
    pop_permutation,
    semilattice_pop,
)
from crystalpop.poset import ReachabilityIndex, join, verify_bowtie
from crystalpop.tableaux import (
    Partition,
    format_tableau,
    hook_content_count,
    parse_tableau,
)
from oracles import enumerate_ssyt

VERTEX_CAP = 100_000


def report(num: int, name: str, ok: bool) -> None:
    print(f"\ncriterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def sweep_crystals():
    """Every crystal with |shape| <= 8, rank <= 4, at most 10^5 vertices."""
    out = {}
    for parts, n in sweep_pairs(4, 8):
        out[(parts, n)] = generate_crystal(Partition(parts, n), cap=VERTEX_CAP)
    return out


def test_criterion_01_operator_example():
    t = parse_tableau("1,1,2,2,3/3,3", 3)
    f1 = lowering_F(t, 1)
    ok = (
        f1 is not None
        and format_tableau(f1) == "1,2,2,2,3/3,3"
        and f1.entry(1, 2) == 2
        and lowering_F(t, 2) is None
    )
    report(1, "lowering operators on the worked example", ok)


def test_criterion_02_eight_vertex_crystal():
    graph = generate_crystal(Partition((2, 1), 2))
    edges_ok = sorted(graph.edges()) == [
        (0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1),
        (3, 5, 2), (4, 6, 1), (5, 7, 1), (6, 7, 2),
    ]
    embedded = sorted(embed_parabolic_quotient(graph).values())
    ok = graph.num_vertices == 8 and edges_ok and embedded == [0, 1, 2, 5, 6, 7]
    report(2, "eight-vertex crystal and embedded six-element orbit", ok)


def test_criterion_03_permutation_pop():
    ok = True
    for m in range(1, 9):
        best = 0
        for w in all_permutations(m):
            steps = 1
            while (nxt := pop_permutation(w)) != w:
                w, steps = nxt, steps + 1
            best = max(best, steps)
        ok &= best == m
    for m in range(1, 8):
        for w in all_permutations(m):
            ok &= pop_permutation(w) == coxeter_pop(w)
    report(3, "pop-stack orbits on permutations", ok)


def test_criterion_04_max_orbit_is_coxeter_number(sweep_crystals):
    ok = True
    for (parts, n), graph in sweep_crystals.items():
        size, _ = max_orbit_size(graph)
        ok &= size == n + 1
        for v in range(graph.num_vertices):
            rep = orbit(graph, v)
            ok &= rep.trajectory[-1] == 0 and rep.length <= n + 1
        if not ok:
            print(f"\nfirst failure at shape {parts}, n={n}")
            break
    report(4, "crystal pop orbits bounded by the Coxeter number", ok)


def test_criterion_05_classification_sweep():
    rep = classification_sweep(4, 8, vertex_cap=VERTEX_CAP)
    by_key = {(r.parts, r.n): r for r in rep.rows}
    flip = (
        by_key[((3, 2, 1), 3)].predicted is True
        and by_key[((3, 2, 1), 3)].brute_force is True
        and by_key[((3, 2, 1), 4)].predicted is False
        and by_key[((3, 2, 1), 4)].brute_force is False
    )
    ok = not rep.disagreements and not rep.skipped and flip
    for r in rep.disagreements[:5]:
        print(f"\ndisagreement: {r.parts} n={r.n} predicted={r.predicted} brute={r.brute_force}")
    report(5, "closed-form lattice classification vs brute force", ok)


def test_criterion_06_explicit_certificates():
    ok = True
    for parts, n, ctor in [
        ((3, 2, 2), 3, bowtie_A),
        ((3, 1, 1), 3, bowtie_B),
        ((5, 2), 3, bowtie_E),
    ]:
        shape = Partition(parts, n)
        graph = generate_crystal(shape)
        ok &= verify_bowtie(graph, locate(graph, ctor(shape)))
    for parts in [(3, 3, 2, 1), (3, 2, 1, 1)]:
        shape = Partition(parts, 4)
        graph = generate_crystal(shape)
        index = ReachabilityIndex(graph)
        a, b = nojoin_D(shape)
        ok &= join(index, graph.vertex_id(a), graph.vertex_id(b)) is None
    report(6, "explicit no-join certificates", ok)


def test_criterion_07_poppability(sweep_crystals):
    ok = all(is_poppable(graph) for graph in sweep_crystals.values())
    report(7, "unique sources in every color restriction", ok)


def test_criterion_08_key_map_suite(sweep_crystals):
    ok = True
    for (parts, n), graph in sweep_crystals.items():
        if n > 3 or graph.num_vertices > 2000:
            continue
        family = build_demazure_family(graph)
        a = verify_key_properties(graph, family)
        b = verify_pop_key_inequality(graph, family)
        ok &= a.ok and b.ok
        if not ok:
            print(f"\nkey suite fails at {parts}, n={n}: {(a.violations + b.violations)[:3]}")
            break
    report(8, "key map property suite", ok)


def test_criterion_09_cardinality(sweep_crystals):
    ok = True
    for (parts, n), graph in sweep_crystals.items():
        shape = Partition(parts, n)
        ok &= graph.num_vertices == hook_content_count(shape)
        ok &= graph.num_vertices == len(enumerate_ssyt(shape))
    report(9, "vertex counts match hook-content and enumeration", ok)


def test_criterion_10_weak_order_lemma_suite():
    ok = all(verify_section3_lemmas(m).ok for m in range(2, 6))
    report(10, "weak-order and pop lemmas on small symmetric groups", ok)


@pytest.mark.slow
def test_criterion_10s_weak_order_lemma_suite_s6():
    ok = verify_section3_lemmas(6).ok
    report(10, "weak-order and pop lemmas on S_6 (slow tier)", ok)


def test_criterion_11_pop_variants_differ():
    graph = generate_crystal(Partition((2, 1), 2))
    index = ReachabilityIndex(graph)
    ok = any(
        semilattice_pop(graph, v, index) != pop_crystal(graph, v)
        for v in range(graph.num_vertices)
    )
    report(11, "semilattice pop differs from component pop", ok)
