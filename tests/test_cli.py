import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystalpop
from crystalpop import classifier, cli, crystal, key, perm, pop
from crystalpop.classifier import Classification, sweep_pairs
from crystalpop.cli import main
from crystalpop.crystal import generate_crystal, weyl_reflect
from crystalpop.tableaux import Partition, Tableau
from oracles import (
    find_bowtie_by_candidates, gen_csv_by_writer, gen_text_by_format_rows, pop_csv_by_color_sets,
    right_mult_gen, to_dot_by_format_rows, to_json_by_dumps,
)


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
        ("pop", "--shape", "5,3,1", "--n", "5", "--format", "text"), 58,
        "6945363d2ae03ccf9462d673021861976278a28cfa80278f18ab0aceba205827", id="pop_text_n5",
    ),
    pytest.param(
        ("pop", "--shape", "5,3,1", "--n", "5", "--format", "csv"), 317_775,
        "070af3a220ed2e3144e7a2798a64b040d53174db32ec85d640e976297e5b9692", id="pop_csv_n5",
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


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("args,size,digest", FROZEN_OUTPUTS)
def test_frozen_outputs_at_small_block_sizes(tmp_path, capsys, monkeypatch, args, size, digest,
                                             block):
    # The default block size is the test above; these put a block edge
    # after every vertex, or after every third.
    for module in (crystal, cli):
        monkeypatch.setattr(module, "BLOCK", block)
    test_gen_json_bytes_are_frozen(tmp_path, capsys, args, size, digest)


def peak_rss_kb(*args: str) -> int:
    """Peak RSS of `crystal-pop args` in KB. A wrapper process reads the
    peak of its one child, so no earlier child of the test process counts."""
    wrapper = ("import resource, subprocess, sys\n"
               "subprocess.run(sys.argv[1:], check=True)\n"
               "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = str(Path(crystalpop.__file__).resolve().parent.parent)
    argv = [sys.executable, "-m", "crystalpop.cli", *args]
    return int(subprocess.run([sys.executable, "-c", wrapper, *argv], check=True, text=True,
                              capture_output=True, env=dict(os.environ, PYTHONPATH=src)).stdout)


def test_whole_graph_outputs_match_the_references(capsys, monkeypatch):
    # At a block per vertex, a block edge after every third and the default.
    for parts, n in sweep_pairs(4, 7) + [((1,), 1), ((2, 1), 9)]:
        graph = generate_crystal(Partition(parts, n))
        shape = ",".join(map(str, parts))
        references = {
            ("gen", "json"): to_json_by_dumps(graph),
            ("gen", "dot"): to_dot_by_format_rows(graph),
            ("gen", "csv"): gen_csv_by_writer(graph),
            ("gen", "text"): gen_text_by_format_rows(graph, shape),
            ("pop", "csv"): pop_csv_by_color_sets(graph),
        }
        for block in (1, 3, crystal.BLOCK):
            for module in (crystal, cli):
                monkeypatch.setattr(module, "BLOCK", block)
            for (command, fmt), reference in references.items():
                got = run(capsys, command, "--shape", shape, "--n", str(n), "--format", fmt)
                assert got == (0, reference, ""), (command, fmt, parts, n, block)


def test_gen_into_a_pipe_closed_early_exits_cleanly(tmp_path):
    # The 566,779-byte export outgrows the pipe, so the command is still
    # writing when the reader leaves after one line.
    src = str(Path(crystalpop.__file__).resolve().parent.parent)
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "crystalpop.cli", "gen", "--shape", "5,3,1", "--n", "4",
             "--format", "json"], stdout=subprocess.PIPE, stderr=err,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        err.seek(0)
        assert err.read() == ""


def test_gen_at_rank_one_thousand_checks_its_cap_at_once():
    # 1,001 vertices. The cap check took over 80 s when it multiplied the
    # factors of all 500,500 pairs of the Weyl formula into two integers.
    src = str(Path(crystalpop.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "crystalpop.cli", "gen", "--shape", "1", "--n", "1000",
         "--format", "csv"], capture_output=True, timeout=20, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout.count(b"\n") == 1001


@pytest.mark.slow
def test_gen_json_at_rank_five_holds_no_string_per_edge(tmp_path):
    # 62,370 vertices: the command peaked at 96 MB while it built the
    # document as one string, and at about 35 MB writing it in blocks.
    target = tmp_path / "crystal.json"
    peak_kb = peak_rss_kb("gen", "--shape", "6,4,2", "--n", "5", "--format", "json",
                          "--out", str(target))
    assert peak_kb < 60 * 1024
    data = target.read_bytes()
    assert len(data) == 18_566_654
    assert hashlib.sha256(data).hexdigest() == (
        "284573210999e1a4f640539ebff9f5368f8ea0d4c45194fc0196ac8de0dc6de3")


@pytest.mark.slow
def test_pop_csv_at_rank_five_stays_under_its_peak_rss(tmp_path):
    # 62,370 vertices: about 42.8-43.9 MB with every vertex's text in one
    # list, about 36.3 MB with the texts joined per vertex from row memos.
    target = tmp_path / "orbits.csv"
    peak_kb = peak_rss_kb("pop", "--shape", "6,4,2", "--n", "5", "--format", "csv",
                          "--out", str(target))
    assert peak_kb < 39 * 1024
    data = target.read_bytes()
    assert len(data) == 2_171_865
    assert hashlib.sha256(data).hexdigest() == (
        "1a1e8ddcf04e180e5e6a896309160e23fa48aa56282d95229d5143cc74504080")


@pytest.mark.parametrize("fmt", ["json", "dot", "csv", "text"])
def test_gen_over_the_cap_opens_no_output(tmp_path, capsys, monkeypatch, fmt):
    monkeypatch.delenv("CRYSTAL_POP_CAP", raising=False)
    target = tmp_path / "crystal.out"
    assert run(capsys, "gen", "--shape", "3000000", "--n", "1", "--format", fmt,
               "--out", str(target)) == (
        2, "", "invalid input: crystal for (3000000,) at n=1 exceeds cap 2000000\n")
    assert not target.exists()


def test_pop_csv_that_fails_its_check_opens_no_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pop, "_popper", lambda graph: lambda v: v + 1)
    target = tmp_path / "orbits.csv"
    for out in ((), ("--out", str(target))):
        assert run(capsys, "pop", "--shape", "2,1", "--n", "2", "--format", "csv", *out) == (
            1, "", "property check failed: pop moved vertex 0 up to 1\n")
    assert not target.exists()


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
    assert run(capsys, "pop", "--shape", "2,1", "--n", "2", "--element", "1,1/2",
               "--format", "text") == (0, out, "")


def test_pop_csv_orbit_table(capsys):
    code, out, _ = run(capsys, "pop", "--shape", "2,1", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,tableau,orbit_length"
    assert len(lines) == 9


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pop_element_rejects_a_csv_or_json_format(capsys, fmt):
    # The trajectory is text only: a csv or json request is invalid input.
    assert run(capsys, "pop", "--shape", "2,1", "--n", "2", "--element", "1,3/2",
               "--format", fmt) == (
        2, "", f"invalid input: --element prints a text trajectory, not --format {fmt}\n")


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
    monkeypatch.setattr(cli, "pop_permutation", lambda w: right_mult_gen(w, 1))
    code, out, err = run(capsys, "perm-pop", "--element", "123")
    assert (code, out) == (1, "")
    assert "property check failed" in err
    monkeypatch.setattr(pop, "_popper", lambda graph: lambda v: v ^ 1)
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


def test_classify_sweep_csv_is_frozen(tmp_path, capsys):
    # The benchmark's sweep (perfbench/expected.json) with millis dropped:
    # byte count and sha256, so a change to generation shows here first.
    argv = ("classify", "--max-n", "5", "--max-cells", "6", "--jobs", "1")
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "sweep.csv"
    assert code == 0 and run(capsys, *argv, "--out", str(target)) == (0, "", "")
    for text in (out, target.read_bytes().decode()):
        kept = "".join(line.rsplit(",", 1)[0] + "\r\n" for line in text.splitlines()).encode()
        assert len(kept) == 2_824
        assert hashlib.sha256(kept).hexdigest() == (
            "0e6d5ae8012bd78dd191106b000713c32d43c6cd7c96def313b8a117c9066185")


def flip_one_box_prediction(monkeypatch):
    """Make the closed form disagree with brute force at shape (1,), n=1."""
    predict = classifier.predict_lattice

    def flip_one_box(shape):
        c = predict(shape)
        if (shape.parts, shape.n) == ((1,), 1):
            return Classification(c.shape, not c.is_lattice_predicted, c.matched_clause)
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


@pytest.mark.parametrize("command", [
    ("gen", "--shape", "2,1", "--n", "2"),
    ("pop", "--shape", "2,1", "--n", "2"),
    ("lattice", "--shape", "2,1", "--n", "2"),
    ("verify", "--shape", "2,1", "--n", "2"),
    ("classify", "--max-n", "2", "--max-cells", "2"),
])
def test_negative_cap_is_invalid_input(capsys, monkeypatch, command):
    code, out, err = run(capsys, *command, "--cap", "-1")
    assert (code, out, err) == (2, "", "invalid input: cap must be at least 0, got -1\n")
    monkeypatch.setenv("CRYSTAL_POP_CAP", "-3")
    code, out, err = run(capsys, *command)
    assert (code, out, err) == (2, "", "invalid input: cap must be at least 0, got -3\n")


@pytest.mark.parametrize("command,cap", [
    (("verify", "--m", "3"), "-5"),  # generates no crystal
    (("classify", "--max-n", "0", "--max-cells", "3"), "-1"),  # an empty sweep
])
def test_negative_cap_is_rejected_where_it_is_parsed(capsys, command, cap):
    code, out, err = run(capsys, *command, "--cap", cap)
    assert (code, out, err) == (2, "", f"invalid input: cap must be at least 0, got {cap}\n")


@pytest.mark.parametrize("command", [
    ("verify", "--m", "3"),  # generates no crystal
    ("classify", "--max-n", "0", "--max-cells", "3"),  # an empty sweep
])
@pytest.mark.parametrize("value,message", [
    ("-3", "cap must be at least 0, got -3"),
    ("abc", "CRYSTAL_POP_CAP must be an integer, got 'abc'"),
])
def test_bad_cap_env_var_is_rejected_where_no_crystal_is_generated(capsys, monkeypatch,
                                                                   command, value, message):
    monkeypatch.setenv("CRYSTAL_POP_CAP", value)
    assert run(capsys, *command) == (2, "", f"invalid input: {message}\n")
    assert run(capsys, *command, "--cap", "5")[0] == 0


def test_malformed_cap_env_var_is_named(capsys, monkeypatch):
    monkeypatch.setenv("CRYSTAL_POP_CAP", "abc")
    code, out, err = run(capsys, "gen", "--shape", "1", "--n", "1")
    assert (code, out) == (2, "")
    assert err == "invalid input: CRYSTAL_POP_CAP must be an integer, got 'abc'\n"


def test_classify_with_a_zero_cap_skips_every_shape(capsys):
    code, out, err = run(capsys, "classify", "--max-n", "1", "--max-cells", "2", "--cap", "0")
    assert (code, err) == (0, "")
    table, skipped = out.split("# ", 1)
    assert [row[:4] for row in csv.reader(io.StringIO(table))][1:] == [
        ["1", "1", "True", "skipped"], ["2", "1", "True", "skipped"],
    ]
    assert skipped == "skipped over cap: (1,) n=1\r\n# skipped over cap: (2,) n=1\r\n"


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


def test_verify_rank_five_crystal_stdout_is_frozen(capsys):
    # The first rank-5 check of the key map: 11,340 vertices, about 0.2 s.
    assert run(capsys, "verify", "--shape", "5,3,1", "--n", "5") == (0, (
        "crystal 5,3,1 n=5: 11340 vertices\npoppable: pass\n"
        "pop agreement on embedded quotient: pass\n"
        "key properties: pass (135540 checks)\npop-key inequality: pass (11340 checks)\n"
    ), "")


@pytest.mark.slow
def test_verify_six_four_two_at_rank_five_stdout_is_frozen(capsys):
    # 62,370 vertices, 202,230 edges: checked is 2E + V(n+1), then V.
    assert run(capsys, "verify", "--shape", "6,4,2", "--n", "5") == (0, (
        "crystal 6,4,2 n=5: 62370 vertices\npoppable: pass\n"
        "pop agreement on embedded quotient: pass\n"
        "key properties: pass (778680 checks)\npop-key inequality: pass (62370 checks)\n"
    ), "")


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
    permutations = count_calls(monkeypatch, "permutation_lines")
    pops = count_calls(monkeypatch, "coxeter_pop")
    assert run(capsys, "verify", "--shape", "4,2", "--n", "4")[0] == 0
    assert len(quotients) == 1
    assert permutations == []
    # |W^J| = 20: one pop per quotient element, one per distinct key.
    assert len(pops) <= 40


def test_verify_crystal_at_high_rank_builds_only_the_quotient(capsys, monkeypatch):
    def no_permutations(m):
        raise AssertionError("S_m was built")

    monkeypatch.setattr(perm, "permutation_lines", no_permutations)
    # The one-box crystal is a chain of n+1 vertices: (n+1)^2 + 2n key checks.
    assert run(capsys, "verify", "--shape", "1", "--n", "11") == (0, (
        "crystal 1 n=11: 12 vertices\npoppable: pass\n"
        "pop agreement on embedded quotient: pass\n"
        "key properties: pass (166 checks)\npop-key inequality: pass (12 checks)\n"
    ), "")


@pytest.mark.parametrize("n,code,stdout,stderr", [
    ("12", 0, "crystal 1 n=12: 13 vertices\npoppable: pass\n"
              "pop agreement on embedded quotient: pass\n"
              "key properties: pass (193 checks)\npop-key inequality: pass (13 checks)\n", ""),
    ("13", 2, "", "invalid input: is_poppable takes at most 12 colors, got 13\n"),
], ids=["12", "13"])
def test_verify_crystal_stops_past_the_poppability_limit(capsys, n, code, stdout, stderr):
    # MAX_POPPABLE_COLORS = 12 bounds the rank that verify --shape takes.
    assert run(capsys, "verify", "--shape", "1", "--n", n) == (code, stdout, stderr)


def test_verify_crystal_inconsistent_family_fails_the_property_check(capsys, monkeypatch):
    def skewed(graph, v, i):
        return weyl_reflect(graph, v, i) if i == 1 else v

    monkeypatch.setattr(key, "weyl_reflect", skewed)
    code, out, err = run(capsys, "verify", "--shape", "2,1", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "property check failed: cover paths disagree at 321 (color 2)\n"


def drop_from_closure(monkeypatch, call: int) -> None:
    """Drop the lowest vertex that the call-th _closure call adds."""
    closure, calls = key._closure, []

    def dropping(succ, bits, i):
        closed = closure(succ, bits, i)
        calls.append(i)
        if len(calls) == call:
            added = closed & ~bits
            closed ^= added & -added
        return closed

    monkeypatch.setattr(key, "_closure", dropping)


def test_verify_crystal_with_a_vertex_dropped_from_one_closure_fails(capsys, monkeypatch):
    # The first closure is s_2's member, closed under F_2. Comparing every
    # cover's closure catches the drop, and so do the key checks.
    drop_from_closure(monkeypatch, 1)
    code, out, err = run(capsys, "verify", "--shape", "4,2", "--n", "4")
    assert (code, out) == (1, "")
    assert err.startswith("property check failed: ")


def test_verify_crystal_with_a_cover_outside_its_member_fails(capsys, monkeypatch):
    # The fourth closure, 23145's member, loses a vertex. 32145 closes that
    # member, and its other cover, 31245, holds the vertex. Every key stays
    # right, so only the containment of each cover's subset in the member
    # catches it.
    drop_from_closure(monkeypatch, 4)
    assert run(capsys, "verify", "--shape", "4,2", "--n", "4") == (
        1, "", "property check failed: cover paths disagree at 32145 (color 2)\n")


def test_verify_crystal_with_a_member_below_a_bruhat_cover_fails(capsys, monkeypatch):
    # The fourth closure, 312's member, loses vertex 1, and every key stays
    # right. 312 covers 213 in the Bruhat order but not in the weak order,
    # and 213's subset holds vertex 1: only the pass over Bruhat covers
    # catches it.
    drop_from_closure(monkeypatch, 4)
    assert run(capsys, "verify", "--shape", "2,1", "--n", "2") == (1, "", (
        "property check failed: 312 covers 213 in the Bruhat order, "
        "but 213's subset is not inside 312's\n"))


@pytest.mark.slow
def test_verify_crystal_with_any_vertex_dropped_from_one_closure_fails(capsys, monkeypatch):
    # Each of the 842 single-vertex drops from one closure on (4,2) n=4.
    closure, added = key._closure, []

    def recorded(succ, bits, i):
        closed = closure(succ, bits, i)
        added.append(closed & ~bits)
        return closed

    monkeypatch.setattr(key, "_closure", recorded)
    assert run(capsys, "verify", "--shape", "4,2", "--n", "4")[0] == 0
    drops = [(call, v) for call, bits in enumerate(added, 1) for v in perm._set_bits(bits)]
    assert len(drops) == 842
    for call, v in drops:
        calls = []

        def dropping(succ, bits, i, call=call, v=v, calls=calls):
            calls.append(i)
            closed = closure(succ, bits, i)
            return closed & ~(1 << v) if len(calls) == call else closed

        monkeypatch.setattr(key, "_closure", dropping)
        assert run(capsys, "verify", "--shape", "4,2", "--n", "4")[:2] == (1, ""), (call, v)


def test_verify_crystal_closes_each_member_once_and_labels_each_pair_of_colors_once(
        capsys, monkeypatch):
    counts = {}
    for module, name in ((key, "_closure"), (pop, "_one_source")):
        calls = counts[name] = []

        def counted(*args, original=getattr(module, name), calls=calls):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    assert run(capsys, "verify", "--shape", "4,2", "--n", "4")[0] == 0
    # |W^J| = 20: one closure per member but the identity. n = 4 colors: one
    # labelling pass per pair of colors, C(4, 2).
    assert len(counts["_closure"]) == 19
    assert len(counts["_one_source"]) == 6


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

    monkeypatch.setattr(perm, "permutation_lines", no_permutations)
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


def test_cap_check_on_a_huge_row_is_immediate(capsys, monkeypatch):
    # Counting the 3,000,001 tableaux by the hook-content product took ~56 s;
    # Weyl's formula takes one product at n = 1.
    monkeypatch.delenv("CRYSTAL_POP_CAP", raising=False)
    assert run(capsys, "gen", "--shape", "3000000", "--n", "1") == (
        2, "", "invalid input: crystal for (3000000,) at n=1 exceeds cap 2000000\n")


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
