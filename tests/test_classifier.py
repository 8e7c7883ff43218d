import itertools

import pytest

from crystalpop import classifier, crystal
from crystalpop.classifier import (
    CLAUSE_A1_A2,
    CLAUSE_COLUMNS,
    CLAUSE_NEAR_RECTANGLE,
    CLAUSE_RECTANGLE,
    CLAUSE_ROW,
    CLAUSE_ROW_PLUS_BOX,
    CLAUSE_STAIRCASE,
    CLAUSE_TWO_ONE,
    CLAUSE_TWOS_ONES,
    HypothesisViolated,
    bowtie_A,
    bowtie_B,
    bowtie_C_via_duality,
    bowtie_E,
    classification_sweep,
    eta_embed,
    iota_embed,
    nojoin_D,
    predict_lattice,
    sweep_pairs,
)
from crystalpop.crystal import generate_crystal
from crystalpop.poset import ReachabilityIndex, is_lattice, join, verify_bowtie
from crystalpop.tableaux import Partition, dual_shape, validate_tableau
from oracles import is_lattice_top_down, locate


@pytest.mark.parametrize(
    "parts,n,clause",
    [
        ((1, 1), 4, CLAUSE_COLUMNS),
        ((1, 1, 1), 3, CLAUSE_COLUMNS),
        ((2, 1, 1), 4, CLAUSE_TWO_ONE),
        ((2, 2, 1), 3, CLAUSE_TWOS_ONES),
        ((7,), 3, CLAUSE_ROW),
        ((3, 3, 3), 3, CLAUSE_RECTANGLE),
        ((5, 1), 4, CLAUSE_ROW_PLUS_BOX),
        ((3, 3, 2), 3, CLAUSE_NEAR_RECTANGLE),
        ((3, 2, 1), 3, CLAUSE_STAIRCASE),
        ((9, 4), 2, CLAUSE_A1_A2),
    ],
)
def test_predicted_lattices(parts, n, clause):
    result = predict_lattice(Partition(parts, n))
    assert result.is_lattice_predicted
    assert result.matched_clause == clause


@pytest.mark.parametrize(
    "parts,n",
    [
        ((3, 2, 1), 4), ((5, 2), 3), ((3, 1, 1), 3), ((2, 2), 3),
        ((4, 4, 1), 4), ((3, 3, 1), 3), ((2, 2, 2), 4),
    ],
)
def test_predicted_non_lattices(parts, n):
    result = predict_lattice(Partition(parts, n))
    assert not result.is_lattice_predicted
    assert result.matched_clause is None


def test_rank_two_always_lattice():
    for parts in [(5, 3), (4,), (2, 2), (7, 1)]:
        assert predict_lattice(Partition(parts, 2)).is_lattice_predicted


@pytest.mark.parametrize("parts,n", [((3, 2, 2), 4), ((4, 2, 2), 3), ((5, 3, 2), 3)])
def test_bowtie_A_verifies(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert verify_bowtie(graph, locate(graph, bowtie_A(shape)))


@pytest.mark.parametrize("parts,n", [((3, 1, 1), 3), ((4, 2, 1), 4), ((5, 1, 1), 3)])
def test_bowtie_B_verifies(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert verify_bowtie(graph, locate(graph, bowtie_B(shape)))


@pytest.mark.parametrize("parts,n", [((2, 2), 3), ((5, 2), 3), ((3, 2), 4)])
def test_bowtie_E_verifies(parts, n):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert verify_bowtie(graph, locate(graph, bowtie_E(shape)))


# Shapes whose duals, (4,3,1,1) and (5,4,2,2), end in three rows that drop by
# two, so the dual quad is built from bowtie_B; the second embeds one column.
THREE_ROW_DUAL_CASES = [((4, 3, 3, 1), 4, 2), ((5, 3, 3, 1), 4, 2)]
BOWTIE_C_CASES = [
    ((3, 3, 1), 3, 1), ((3, 3, 1, 1), 4, 1), ((5, 3, 1), 3, 1), ((3, 3, 1), 4, 1),
] + THREE_ROW_DUAL_CASES


@pytest.mark.parametrize("parts,n,p", BOWTIE_C_CASES)
def test_bowtie_C_pullback_verifies(parts, n, p):
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert verify_bowtie(graph, locate(graph, bowtie_C_via_duality(shape, p)))


@pytest.mark.parametrize("parts,n,p", BOWTIE_C_CASES)
def test_bowtie_C_generates_each_crystal_once(monkeypatch, parts, n, p):
    # the shape and its dual, even where the dual certificate is scanned for
    shapes = []

    def spy(shape, cap=None):
        shapes.append(shape.parts)
        return generate_crystal(shape, cap)

    monkeypatch.setattr(crystal, "generate_crystal", spy)
    monkeypatch.setattr(classifier, "generate_crystal", spy)
    bowtie_C_via_duality(Partition(parts, n), p)
    assert sorted(shapes) == sorted([parts, dual_shape(Partition(parts, n)).parts])


@pytest.mark.parametrize("parts,n,p", THREE_ROW_DUAL_CASES)
def test_bowtie_C_builds_three_row_dual_quad(monkeypatch, parts, n, p):
    built = []

    def spy(shape):
        built.append(shape.parts)
        return bowtie_B(shape)

    def scan(*args):
        raise AssertionError("the dual quad was scanned for")

    monkeypatch.setattr(classifier, "bowtie_B", spy)
    monkeypatch.setattr(classifier, "find_bowtie", scan)
    shape = Partition(parts, n)
    graph = generate_crystal(shape)
    assert verify_bowtie(graph, locate(graph, bowtie_C_via_duality(shape, p)))
    assert built == [(3, 1, 1)]


def test_constructors_reject_wrong_shapes():
    with pytest.raises(HypothesisViolated):
        bowtie_A(Partition((3, 3, 2), 4))  # needs a strict first drop
    with pytest.raises(HypothesisViolated):
        bowtie_B(Partition((3, 2, 1), 3))  # needs a drop of at least two
    with pytest.raises(HypothesisViolated):
        bowtie_E(Partition((4, 2), 2))  # rank too small
    with pytest.raises(HypothesisViolated):
        bowtie_C_via_duality(Partition((3, 3, 2), 3), 2)  # p beyond ell-2
    with pytest.raises(HypothesisViolated):
        nojoin_D(Partition((3, 3, 3), 4))


def test_bowtie_C_hypothesis_gives_the_dual_pattern():
    # nu_i = lambda_1 - lambda_{n+2-i} and q = n - p, so the drops of rows
    # p..p+2 of lambda are the drops of rows q..q+2 of its dual, reversed:
    # bowtie_C_via_duality needs no second check on the dual shape.
    checked = 0
    for parts, n in sweep_pairs(5, 8):
        shape = Partition(parts, n)
        nu, part = dual_shape(shape), shape.part
        for p in range(1, len(parts) - 1):
            if part(p) >= part(p + 1) >= part(p + 2) + 2:
                q = n - p
                assert nu.part(q) - 2 >= nu.part(q + 1) >= nu.part(q + 2), (parts, n, p)
                checked += 1
    assert checked


@pytest.mark.parametrize("parts", [(3, 3, 2, 1), (3, 2, 1, 1)])
def test_nojoin_D_pairs_have_no_join(parts):
    shape = Partition(parts, 4)
    graph = generate_crystal(shape)
    index = ReachabilityIndex(graph)
    a, b = nojoin_D(shape)
    assert join(index, graph.vertex_id(a), graph.vertex_id(b)) is None


def test_iota_embed():
    small = validate_tableau(Partition((2, 1), 2), [(1, 3), (2,)])
    target = Partition((3, 2, 1), 3)
    big = iota_embed(small, target)
    assert big.rows == ((1, 1, 1), (2, 4), (3,))
    with pytest.raises(HypothesisViolated):
        iota_embed(small, Partition((3, 2), 3))


def test_eta_embed():
    small = validate_tableau(Partition((2, 1), 3), [(1, 3), (2,)])
    target = Partition((4, 3), 3)
    big = eta_embed(small, target, 2)
    assert big.rows == ((1, 1, 1, 3), (2, 2, 2))
    with pytest.raises(HypothesisViolated):
        eta_embed(small, Partition((4, 3), 3), 1)


def test_embeds_preserve_crystal_membership():
    # embedded images of crystal vertices are again valid vertices
    shape = Partition((3, 1), 3)
    graph = generate_crystal(shape)
    target = Partition((3, 3, 1), 4)
    big = generate_crystal(target)
    for v in range(20):
        assert big.vertex_id(iota_embed(graph.tableau(v), target)) >= 0


def test_sweep_pairs_bounds():
    pairs = sweep_pairs(3, 4)
    assert ((1,), 1) in pairs and ((2, 2), 3) in pairs
    assert all(sum(parts) <= 4 and len(parts) <= n <= 3 for parts, n in pairs)
    assert pairs == sorted(pairs)


@pytest.mark.parametrize("max_n", range(6))
def test_sweep_pairs_match_brute_force(max_n):
    for max_cells in range(9):
        want = sorted(
            (parts, n)
            for length in range(1, max_n + 1)
            for parts in itertools.product(range(1, max_cells + 1), repeat=length)
            if sum(parts) <= max_cells and list(parts) == sorted(parts, reverse=True)
            for n in range(length, max_n + 1)
        )
        assert sweep_pairs(max_n, max_cells) == want


def test_small_sweep_agrees():
    report = classification_sweep(3, 5, vertex_cap=10_000)
    assert report.disagreements == []
    assert report.skipped == []
    for row in report.rows:
        assert row.predicted == is_lattice(
            generate_crystal(Partition(row.parts, row.n))
        ).is_lattice


def test_sweep_rows_match_full_generation_and_the_top_down_verdict():
    for row in classification_sweep(5, 6).rows:
        graph = generate_crystal(Partition(row.parts, row.n))
        prediction = predict_lattice(graph.shape)
        assert (row.predicted, row.clause, row.brute_force, row.vertices, row.skipped) == (
            prediction.is_lattice_predicted, prediction.matched_clause,
            is_lattice_top_down(graph).is_lattice, graph.num_vertices, False), row


def test_sweep_reads_the_cap_environment_variable_once(monkeypatch):
    monkeypatch.setenv("CRYSTAL_POP_CAP", "10")
    caps, resolve = [], crystal.default_cap

    def spy(cap=None):
        caps.append(cap)
        return resolve(cap)
    monkeypatch.setattr(crystal, "default_cap", spy)
    monkeypatch.setattr(classifier, "default_cap", spy)
    report = classification_sweep(3, 4)
    assert caps.count(None) == 1 and set(caps) == {None, 10}
    assert report.skipped and all(row.vertices is None for row in report.skipped)


@pytest.mark.slow
def test_rank_six_sweep_agrees():
    # Largest crystal: (5,3,1) n=6, 41,580 vertices, under the default cap.
    report = classification_sweep(6, 9)
    assert len(report.rows) == 331
    assert report.disagreements == [] and report.skipped == []


def test_sweep_records_skips():
    report = classification_sweep(3, 5, vertex_cap=5)
    assert report.skipped
    for row in report.skipped:
        assert row.brute_force is None and row.vertices is None
        assert row.agrees is None


def test_sweep_parallel_matches_serial():
    serial = classification_sweep(3, 4, vertex_cap=10_000, jobs=1)
    parallel = classification_sweep(3, 4, vertex_cap=10_000, jobs=2)
    strip = lambda rows: [(r.parts, r.n, r.predicted, r.brute_force, r.skipped) for r in rows]
    assert strip(serial.rows) == strip(parallel.rows)


def test_sweep_forks_no_more_workers_than_shapes(monkeypatch):
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    assert len(sweep_pairs(2, 2)) == 5
    serial = classification_sweep(2, 2, jobs=1)
    for jobs, cpus, workers in [(64, 64, 5), (64, 3, 3), (4, 8, 4), (64, None, None), (8, 1, None)]:
        monkeypatch.setattr(classifier.os, "cpu_count", lambda: cpus)
        requested.clear()
        wide = classification_sweep(2, 2, jobs=jobs)
        assert requested == ([] if workers is None else [workers])
        assert [r.parts for r in wide.rows] == [r.parts for r in serial.rows]


def test_sign_flip_staircase():
    assert predict_lattice(Partition((3, 2, 1), 3)).is_lattice_predicted
    assert not predict_lattice(Partition((3, 2, 1), 4)).is_lattice_predicted
    assert is_lattice(generate_crystal(Partition((3, 2, 1), 3))).is_lattice
    assert not is_lattice(generate_crystal(Partition((3, 2, 1), 4))).is_lattice
