import csv
import dataclasses
import hashlib
import io
import json
import sys

import pytest

from crystalpop import classifier, cli, key, perm, pop
from crystalpop.classifier import sweep_pairs
from crystalpop.cli import main
from crystalpop.crystal import generate_crystal, weyl_reflect
from crystalpop.tableaux import Partition, Tableau
from oracles import find_bowtie_by_candidates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_dot(capsys):
    code, out, _ = run(capsys, "gen", "--shape", "2,1", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.count("->") == 8
    assert out.count("[label=") >= 8


def test_gen_json_vertex_count(capsys):
    code, out, _ = run(capsys, "gen", "--shape", "2,2", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 20


def test_gen_single_box_chain(capsys):
    code, out, _ = run(capsys, "gen", "--shape", "1", "--n", "1")
    assert code == 0
    assert "2 vertices" in out


def test_gen_csv_and_text_deterministic(capsys):
    first = run(capsys, "gen", "--shape", "3,1", "--n", "3", "--format", "csv")
    second = run(capsys, "gen", "--shape", "3,1", "--n", "3", "--format", "csv")
    assert first == second
    assert first[1].splitlines()[0] == "src,dst,color"


def test_gen_out_file(tmp_path, capsys):
    target = tmp_path / "crystal.json"
    code, out, _ = run(capsys, "gen", "--shape", "2,1", "--n", "2",
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())["edges"]) == 8


# Byte counts and sha256 of command outputs that any change to the vertex
# store must reproduce; the (5,3,1) n=5 export is also in perfbench/expected.json.
FROZEN_OUTPUTS = [
    pytest.param(
        ("gen", "--shape", "5,3,1", "--n", "5", "--format", "json"), 3_033_874,
        "891193a6afb432e19aad1332b50f3ed19aa4872deddb5add733ddca30cb22beb", id="gen_json",
    ),
    pytest.param(
        ("gen", "--shape", "5,3,1", "--n", "4", "--format", "json"), 566_779,
        "326efe072554475275956f3ca36a47aa26f3ceb9d2299105565d17744e71e932", id="gen_json_n4",
    ),
    pytest.param(
        ("gen", "--shape", "5,3,1", "--n", "4", "--format", "csv"), 73_926,
        "66f0ffde8763be22536806d363fba2f12c65f2f267fad461872fe864eead6b68", id="gen_csv",
    ),
    pytest.param(
        ("gen", "--shape", "5,3,1", "--n", "4", "--format", "dot"), 350_566,
        "fa2f2d17e77526297eff90ee1a3601820e2859fdc33a9ea741637b08e5a72f78", id="gen_dot",
    ),
    pytest.param(
        ("gen", "--shape", "5,3,1", "--n", "4", "--format", "text"), 178_770,
        "ecae7b3d399562144e3fbe6a55e07af4fde7b28dd7435e3c8a6fcd07e747968b", id="gen_text",
    ),
    pytest.param(
        ("pop", "--shape", "5,3,1", "--n", "4", "--format", "csv"), 66_955,
        "00a7a32bf96b1b769a29a39388525c2a4fd5fb406f12f4d8d9059aff0a85ff31", id="pop_csv",
    ),
    pytest.param(
        ("pop", "--shape", "5,3,1", "--n", "4", "--format", "json"), 127,
        "130fe34d26f2b16cde19dc8cd42f7537d592b8dbbdd249a23181129efd57322e", id="pop_json",
    ),
    pytest.param(
        ("pop", "--shape", "5,3,1", "--n", "4", "--format", "text"), 58,
        "263b5db3b55ece4608c6a3b70fb192b95a0abfcc79cb3074b5b523d1ff2ac50b", id="pop_text",
    ),
    pytest.param(
        ("pop", "--shape", "5,3,1", "--n", "4", "--element", "1,1,2,4,5/2,3,5/4"), 105,
        "261ecd1005dab0e57739cf7d3d66220930e336fca5cf33fb11e9d483ce1cab37", id="pop_element",
    ),
    pytest.param(
        ("lattice", "--shape", "4,4", "--n", "5"), 137,
        "24f00a6e417bedecf4933b45bda09f965e873b6805db8430129c4b1dd4a19b07", id="lattice",
    ),
]


@pytest.mark.parametrize("args,size,digest", FROZEN_OUTPUTS)
def test_gen_json_bytes_are_frozen(tmp_path, capsys, args, size, digest):
    code, out, _ = run(capsys, *args)
    data = out.encode()
    assert code == 0 and len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
    target = tmp_path / "output"
    assert run(capsys, *args, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == data


@pytest.mark.parametrize("args", [
    ("gen", "--shape", "3,2", "--n", "3", "--format", "json"),
    ("gen", "--shape", "3,2", "--n", "3", "--format", "dot"),
    ("gen", "--shape", "3,2", "--n", "3", "--format", "text"),
    ("gen", "--shape", "3,2", "--n", "3", "--format", "csv"),
    ("pop", "--shape", "3,2", "--n", "3", "--format", "json"),
    ("pop", "--shape", "3,2", "--n", "3", "--format", "csv"),
    ("pop", "--shape", "3,2", "--n", "3", "--format", "text"),
    ("lattice", "--shape", "5,2", "--n", "3"),
], ids=["gen_json", "gen_dot", "gen_text", "gen_csv", "pop_json", "pop_csv", "pop_text", "lattice"])
def test_outputs_build_no_tableau_per_vertex(monkeypatch, capsys, args):
    built = []
    init = Tableau.__init__

    def counting_init(self, *a, **kw):
        built.append(1)
        init(self, *a, **kw)

    monkeypatch.setattr(Tableau, "__init__", counting_init)
    code, out, _ = run(capsys, *args)
    assert code == 0 and out
    assert len(built) <= 1  # the highest-weight seed of the search


def test_pop_max_orbit(capsys):
    code, out, _ = run(capsys, "pop", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert "max orbit 3" in out
    code, out, _ = run(capsys, "pop", "--shape", "1,1", "--n", "3")
    assert "max orbit 4" in out


def test_pop_single_element(capsys):
    code, out, _ = run(capsys, "pop", "--shape", "2,1", "--n", "2",
                       "--element", "1,1/2")
    assert code == 0
    assert out.strip().splitlines() == ["1,1/2", "orbit length 1"]


def test_pop_csv_orbit_table(capsys):
    code, out, _ = run(capsys, "pop", "--shape", "2,1", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,tableau,orbit_length"
    assert len(lines) == 9


def test_pop_element_wrong_shape(capsys):
    code, _, err = run(capsys, "pop", "--shape", "2,1", "--n", "2",
                       "--element", "1,1,1/2")
    assert code == 2
    assert "invalid input" in err


def test_perm_pop_orbit(capsys):
    code, out, _ = run(capsys, "perm-pop", "--element", "532481976")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "532481976"
    assert lines[1] == "235418679"
    assert lines[-2] == "123456789"
    assert lines[-1] == "orbit length 5"


@pytest.mark.parametrize("element", ["", " "])
def test_perm_pop_rejects_an_empty_element(capsys, element):
    code, out, err = run(capsys, "perm-pop", "--element", element)
    assert (code, out) == (2, "")
    assert "invalid input" in err


def test_perm_pop_identity_fixed(capsys):
    code, out, _ = run(capsys, "perm-pop", "--element", "123")
    assert code == 0
    assert out.strip().splitlines() == ["123", "orbit length 1"]


def test_cycling_orbits_fail_the_property_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "pop_permutation", lambda w: w.right_mult_gen(1))
    code, out, err = run(capsys, "perm-pop", "--element", "123")
    assert (code, out) == (1, "")
    assert "property check failed" in err
    monkeypatch.setattr(pop, "pop_crystal", lambda graph, v: v ^ 1)
    code, out, err = run(capsys, "pop", "--shape", "2,1", "--n", "2", "--element", "1,1/2")
    assert (code, out) == (1, "")
    assert "property check failed" in err


def test_lattice_positive(capsys):
    code, out, _ = run(capsys, "lattice", "--shape", "3,2,1", "--n", "3")
    assert code == 0
    assert "lattice" in out and "not a lattice" not in out


def test_lattice_negative_prints_certificate(capsys):
    code, out, _ = run(capsys, "lattice", "--shape", "5,2", "--n", "3")
    assert code == 0
    assert "not a lattice" in out
    assert out.count("bowtie") == 4


def test_lattice_on_a_large_lattice(capsys):
    # 6,188 vertices; the verdict checks pairs of covers, not all pairs.
    code, out, _ = run(capsys, "lattice", "--shape", "12", "--n", "5")
    assert (code, out) == (0, "shape 12 n=5: lattice\nclause: (k)\n")


def test_lattice_builds_an_index_only_for_a_bowtie(capsys, index_builds):
    assert run(capsys, "lattice", "--shape", "3,2,1", "--n", "3")[0] == 0
    assert index_builds == []
    code, out, _ = run(capsys, "lattice", "--shape", "5,2", "--n", "3")
    assert code == 0 and out.count("bowtie") == 4 and len(index_builds) == 1


@pytest.mark.parametrize("shape,n", [("5,2", 3), ("4,4", 5)])
def test_lattice_prints_the_reference_certificate(capsys, shape, n):
    graph = generate_crystal(Partition(tuple(map(int, shape.split(","))), n))
    cert = find_bowtie_by_candidates(graph)
    want = [
        f"bowtie {name}: {graph.tableau(v)}"
        for name, v in (("t1", cert.t1), ("t2", cert.t2), ("u1", cert.u1), ("u2", cert.u2))
    ]
    code, out, _ = run(capsys, "lattice", "--shape", shape, "--n", str(n))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("bowtie")] == want


def test_classify_small_sweep(capsys):
    code, out, _ = run(capsys, "classify", "--max-n", "2", "--max-cells", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "n", "predicted", "brute_force", "clause", "vertices", "millis"]
    assert len(rows) - 1 == len(sweep_pairs(2, 4))
    assert all(row[2] == row[3] for row in rows[1:])


def flip_one_box_prediction(monkeypatch):
    """Make the closed form disagree with brute force at shape (1,), n=1."""
    predict = classifier.predict_lattice

    def flip_one_box(shape):
        c = predict(shape)
        if (shape.parts, shape.n) == ((1,), 1):
            return dataclasses.replace(c, is_lattice_predicted=not c.is_lattice_predicted)
        return c

    monkeypatch.setattr(classifier, "predict_lattice", flip_one_box)


def test_classify_disagreement_still_writes_the_out_file(tmp_path, capsys, monkeypatch):
    flip_one_box_prediction(monkeypatch)
    target = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "classify", "--max-n", "2", "--max-cells", "2",
                         "--jobs", "1", "--out", str(target))
    assert (code, out) == (1, "")
    assert "classification disagrees at (1,), n=1" in err
    lines = target.read_text().splitlines()
    assert lines[0] == "lambda,n,predicted,brute_force,clause,vertices,millis"
    assert len(lines) == 1 + len(sweep_pairs(2, 2))
    assert lines[1].startswith("1,1,False,True,")


@pytest.mark.parametrize("argv,disagree", [
    (("gen", "--shape", "2,1", "--n", "2"), False),
    (("classify", "--max-n", "2", "--max-cells", "2"), False),
    (("classify", "--max-n", "2", "--max-cells", "2"), True),
], ids=["gen", "classify", "classify_disagreement"])
def test_out_path_that_cannot_be_opened_is_invalid_input(tmp_path, capsys, monkeypatch,
                                                         argv, disagree):
    if disagree:
        flip_one_box_prediction(monkeypatch)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"invalid input: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_classify_ends_every_line_with_crlf(tmp_path, capsys):
    argv = ["classify", "--max-n", "3", "--max-cells", "3", "--cap", "10"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "sweep.csv"
    assert run(capsys, *argv, "--out", str(target))[:2] == (0, "")
    for text in (out, target.read_bytes().decode()):
        assert "# skipped over cap" in text
        lines = text.split("\n")
        assert lines.pop() == ""
        assert all(line.endswith("\r") for line in lines)


def test_classify_reports_skips(capsys):
    code, out, _ = run(capsys, "classify", "--max-n", "3", "--max-cells", "4",
                       "--cap", "5")
    assert code == 0
    assert "# skipped over cap" in out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_classify_needs_at_least_one_job(capsys, jobs):
    code, out, err = run(capsys, "classify", "--max-n", "2", "--max-cells", "2", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"invalid input: jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("bounds,name,bound", [
    (("-1", "3"), "max_n", -1), (("3", "-2"), "max_cells", -2),
])
def test_classify_rejects_negative_bounds(capsys, bounds, name, bound):
    code, out, err = run(capsys, "classify", "--max-n", bounds[0], "--max-cells", bounds[1])
    assert (code, out) == (2, "")
    assert err == f"invalid input: {name} must be at least 0, got {bound}\n"


@pytest.mark.parametrize("bounds", [("0", "3"), ("3", "0")])
def test_classify_zero_bound_is_an_empty_sweep(capsys, bounds):
    code, out, err = run(capsys, "classify", "--max-n", bounds[0], "--max-cells", bounds[1])
    assert (code, out, err) == (0, "lambda,n,predicted,brute_force,clause,vertices,millis\r\n", "")


def test_verify_crystal(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert "poppable: pass" in out
    assert "pop-key inequality: pass" in out


# The verify_suite stdout frozen in perfbench/expected.json.
@pytest.mark.parametrize("shape,stdout", [
    ("4,2", "crystal 4,2 n=4: 420 vertices\npoppable: pass\n"
            "pop agreement on embedded quotient: pass\n"
            "key properties: pass (4012 checks)\npop-key inequality: pass (420 checks)\n"),
    ("3,3,1", "crystal 3,3,1 n=4: 315 vertices\npoppable: pass\n"
              "pop agreement on embedded quotient: pass\n"
              "key properties: pass (2967 checks)\npop-key inequality: pass (315 checks)\n"),
    ("3,2,1", "crystal 3,2,1 n=4: 280 vertices\npoppable: pass\n"
              "pop agreement on embedded quotient: pass\n"
              "key properties: pass (2552 checks)\npop-key inequality: pass (280 checks)\n"),
])
def test_verify_crystal_stdout_is_frozen(capsys, shape, stdout):
    assert run(capsys, "verify", "--shape", shape, "--n", "4") == (0, stdout, "")


def count_calls(monkeypatch, name: str) -> list:
    """Count calls to crystalpop.perm.<name> from every crystalpop module."""
    original = getattr(perm, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crystalpop") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_verify_crystal_walks_the_quotient_once(capsys, monkeypatch):
    quotients = count_calls(monkeypatch, "parabolic_quotient")
    permutations = count_calls(monkeypatch, "all_permutations")
    pops = count_calls(monkeypatch, "coxeter_pop")
    assert run(capsys, "verify", "--shape", "4,2", "--n", "4")[0] == 0
    assert len(quotients) == 1
    assert permutations == []
    # |W^J| = 20: one pop per quotient element, one per distinct key.
    assert len(pops) <= 40


def test_verify_crystal_at_high_rank_builds_only_the_quotient(capsys, monkeypatch):
    def no_permutations(m):
        raise AssertionError("S_m was built")

    monkeypatch.setattr(perm, "all_permutations", no_permutations)
    # The one-box crystal is a chain of n+1 vertices: (n+1)^2 + 2n key checks.
    assert run(capsys, "verify", "--shape", "1", "--n", "11") == (0, (
        "crystal 1 n=11: 12 vertices\npoppable: pass\n"
        "pop agreement on embedded quotient: pass\n"
        "key properties: pass (166 checks)\npop-key inequality: pass (12 checks)\n"
    ), "")


def test_verify_crystal_inconsistent_family_fails_the_property_check(capsys, monkeypatch):
    def skewed(graph, v, i):
        return weyl_reflect(graph, v, i) if i == 1 else v

    monkeypatch.setattr(key, "weyl_reflect", skewed)
    code, out, err = run(capsys, "verify", "--shape", "2,1", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "property check failed: cover paths disagree at 321 (color 2)\n"


def test_verify_crystal_without_a_unique_key_fails_the_property_check(capsys, monkeypatch):
    monkeypatch.setattr(key, "bruhat_leq", lambda u, w: False)
    code, out, err = run(capsys, "verify", "--shape", "2,1", "--n", "2")
    assert (code, out) == (1, "")
    assert err.startswith("property check failed: vertex ")
    assert "are incomparable" in err


def test_verify_lemma_suite(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3")
    assert code == 0
    assert "all pass" in out


def test_verify_lemma_suite_rejects_m_below_one(capsys):
    for m in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--m", m)
        assert code == 2
        assert out == ""
        assert "invalid input" in err


def test_verify_lemma_suite_rejects_m_past_the_limit(capsys, monkeypatch):
    def no_permutations(m):
        raise AssertionError("S_m was built")

    monkeypatch.setattr(perm, "all_permutations", no_permutations)
    code, out, err = run(capsys, "verify", "--m", str(perm.MAX_LEMMA_M + 1))
    assert code == 2
    assert out == ""
    assert f"invalid input: the lemma suite needs m <= {perm.MAX_LEMMA_M}, got 9" in err


def test_verify_needs_arguments(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "verify needs" in err


@pytest.mark.parametrize("extra", [["--shape", "2,1", "--n", "2"], ["--shape", "2,1"], ["--n", "2"]])
def test_verify_rejects_m_with_a_shape(capsys, extra):
    assert run(capsys, "verify", "--m", "3", *extra) == (
        2, "", "verify takes either --shape/--n or --m, not both\n"
    )


def test_invalid_shape_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--shape", "1,2", "--n", "3")
    assert code == 2
    assert "invalid input" in err


def test_empty_shape_rejected_for_pop(capsys):
    code, _, err = run(capsys, "pop", "--shape", "", "--n", "2")
    assert code == 2


def test_cap_flag_enforced(capsys):
    code, _, err = run(capsys, "gen", "--shape", "3,1", "--n", "3", "--cap", "10")
    assert code == 2
    assert "exceeds cap" in err


def test_cap_env_var_applies_to_every_command(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POP_CAP", "10")
    code, _, err = run(capsys, "gen", "--shape", "3,1", "--n", "3")
    assert code == 2
    assert "exceeds cap 10" in err
    assert run(capsys, "gen", "--shape", "3,1", "--n", "3", "--cap", "100")[0] == 0
    code, out, _ = run(capsys, "classify", "--max-n", "3", "--max-cells", "4")
    assert code == 0
    assert "# skipped over cap" in out
    monkeypatch.setenv("CRYSTAL_POP_CAP", "abc")
    for argv in (("gen", "--shape", "3,1", "--n", "3"),
                 ("classify", "--max-n", "2", "--max-cells", "2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "invalid input" in err
