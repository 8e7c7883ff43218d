import json

import pytest

from crystalpop import cli, pop
from crystalpop.cli import main


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


def test_classify_small_sweep(capsys):
    code, out, _ = run(capsys, "classify", "--max-n", "2", "--max-cells", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,n,predicted,brute_force,clause,vertices,millis"
    assert all("False" not in line.split(",")[2] or True for line in lines)


def test_classify_reports_skips(capsys):
    code, out, _ = run(capsys, "classify", "--max-n", "3", "--max-cells", "4",
                       "--cap", "5")
    assert code == 0
    assert "# skipped over cap" in out


def test_verify_crystal(capsys):
    code, out, _ = run(capsys, "verify", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert "poppable: pass" in out
    assert "pop-key inequality: pass" in out


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


def test_verify_needs_arguments(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "verify needs" in err


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
