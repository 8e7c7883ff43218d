"""The benchmark workloads and the checks that gate them.

Each workload is a closed loop with one client: one process, one thread,
one call after another. ``prepare`` builds the inputs from the seed before
the clock starts; the runners drive crystalpop through its public API and
the CLI entry point, time each call with ``tracer.op`` (the checks are not
timed) and check every output against the frozen expected values in
expected.json. Every operation that raises, exits non-zero or differs from
its expected value is one failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path

from crystalpop import cli
from crystalpop.crystal import generate_crystal, to_json
from crystalpop.pop import max_orbit_size, orbit, pop_crystal
from crystalpop.poset import (
    ReachabilityIndex,
    find_bowtie,
    is_lattice,
    join,
    meet,
    minimal_upper_bounds,
    verify_bowtie,
)
from crystalpop.tableaux import Partition, hook_content_count

import tracing


class Outcome:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def fail(self, count: int, what: str) -> None:
        self.attempted += count
        self.failures.extend([what] * count)


def _report_exception(what: str) -> None:
    sys.stderr.write(f"{what} raised:\n{traceback.format_exc()}")


def expected_operations(name: str, exp: dict) -> int:
    if name == "classify_sweep":
        return len(exp["rows"])
    if name == "verify_suite":
        return len(exp["runs"])
    return len(LARGE_PHASES) + exp["index_sources"] + 2 * exp["pairs"] + exp["orbit_starts"]


# -- classify_sweep ----------------------------------------------------------

def _csv_lines_without_millis(text: str) -> list[str]:
    out = []
    for row in csv.reader(io.StringIO(text)):
        buf = io.StringIO()
        csv.writer(buf).writerow(row[:-1])
        out.append(buf.getvalue())
    return out


def run_classify_sweep(inputs, exp, tracer, outcome: Outcome) -> None:
    out_path = Path(inputs["out"])
    try:
        rc = tracer.op("cli.main", cli.main, inputs["argv"])
    except Exception:
        _report_exception("classify")
        outcome.fail(len(exp["rows"]), "classify raised")
        return
    with tracer.span("bench.check"):
        if rc != 0:
            outcome.fail(len(exp["rows"]), f"classify exited {rc}")
            return
        if not out_path.is_file():
            outcome.fail(len(exp["rows"]), "classify wrote no --out file")
            return
        with out_path.open(newline="") as fh:
            got = _csv_lines_without_millis(fh.read())
        header, rows = got[:1], got[1:]
        expected_rows = exp["rows"]
        if header != [exp["header"]]:
            outcome.fail(len(expected_rows), "classify header differs")
            return
        for k, want in enumerate(expected_rows):
            outcome.check(k < len(rows) and rows[k] == want, f"sweep row {k}")
        if len(rows) > len(expected_rows):
            outcome.fail(len(rows) - len(expected_rows), "extra sweep rows")


# -- verify_suite ------------------------------------------------------------

def run_verify_suite(inputs, exp, tracer, outcome: Outcome) -> None:
    for argv, want in zip(inputs["argvs"], (r["stdout"] for r in exp["runs"])):
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                rc = tracer.op("cli.main", cli.main, argv)
        except Exception:
            _report_exception(" ".join(argv))
            outcome.fail(1, f"{argv} raised")
            continue
        with tracer.span("bench.check"):
            outcome.check(rc == 0 and buf.getvalue() == want, f"{' '.join(argv)} (exit {rc})")


# -- large_crystal -----------------------------------------------------------

LARGE_PHASES = (
    "generate", "max_orbit", "is_lattice", "find_bowtie", "verify_bowtie", "export",
)


def orbit_lengths(graph) -> list[int]:
    """Orbit length of every vertex from one pop per vertex: pop moves to a
    smaller id, so lengths fill in id order."""
    lengths = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        w = pop_crystal(graph, v)
        lengths[v] = 1 if w == v else 1 + lengths[w]
    return lengths


def reachable_bits(adj, start: int, size: int) -> int:
    """Bitset of the vertices reachable from start along adj (start
    included), by a depth-first search that does not use the index."""
    seen = bytearray((size + 7) // 8)
    seen[start >> 3] |= 1 << (start & 7)
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w is not None and not seen[w >> 3] >> (w & 7) & 1:
                seen[w >> 3] |= 1 << (w & 7)
                stack.append(w)
    return int.from_bytes(seen, "little")


def check_index(graph, index, sources, outcome: Outcome) -> None:
    """Each source's up-set and down-set in the index must equal what a
    search over graph.succ and graph.pred reaches."""
    size = graph.num_vertices
    for v in sources:
        outcome.check(
            index.up[v] == reachable_bits(graph.succ, v, size)
            and index.down[v] == reachable_bits(graph.pred, v, size),
            f"index up/down of {v}",
        )


def maximal_of_downset(index, bits: int) -> list[int]:
    """Maximal elements of a down-closed bitset: the highest id present is
    maximal, then drop everything below it and repeat."""
    out = []
    while bits:
        z = bits.bit_length() - 1
        out.append(z)
        bits &= ~index.down[z]
    return out


def join_meet(index, pairs):
    return [(join(index, u, v), meet(index, (u, v))) for u, v in pairs]


def _large_phases(graph_shape, inputs, exp, tracer, outcome: Outcome) -> None:
    graph = tracer.op("crystal.generate", generate_crystal, graph_shape,
                      after=tracing.note_generate)
    with tracer.span("bench.check"):
        edges = sum(w is not None for row in graph.succ for w in row)
        outcome.check(
            graph.num_vertices == exp["vertices"] == hook_content_count(graph_shape)
            and edges == exp["edges"],
            f"generate: {graph.num_vertices} vertices, {edges} edges",
        )

    best = tracer.op("pop.max_orbit", max_orbit_size, graph)
    with tracer.span("bench.check"):
        lengths = orbit_lengths(graph)
        histogram = [lengths.count(k) for k in range(1, max(lengths) + 1)]
        first_longest = lengths.index(max(lengths))
        outcome.check(
            list(best) == exp["max_orbit"] == [max(lengths), first_longest]
            and histogram == exp["orbit_histogram"],
            f"max orbit {best}, histogram {histogram}",
        )

    index = tracer.op("poset.index", ReachabilityIndex, graph,
                      after=tracing.note_index, rss=True)
    with tracer.span("bench.check"):
        check_index(graph, index, inputs["index_sources"], outcome)

    lattice = tracer.op("poset.is_lattice", is_lattice, graph, index,
                        after=tracing.note_is_lattice)
    outcome.check(not lattice.is_lattice and list(lattice.witness) == exp["lattice_witness"],
                  f"is_lattice {lattice}")

    cert = tracer.op("poset.find_bowtie", find_bowtie, graph, index)
    got = None if cert is None else [cert.t1, cert.t2, cert.u1, cert.u2]
    outcome.check(got == exp["bowtie"], f"find_bowtie {got}")
    if cert is None:
        outcome.fail(1, "verify_bowtie without a certificate")
    else:
        ok = tracer.op("poset.verify_bowtie", verify_bowtie, graph, cert, index)
        outcome.check(ok, "verify_bowtie")

    pairs = inputs["pairs"]
    answers = tracer.op("poset.join_meet", join_meet, index, pairs)
    if tracer.enabled:
        tracer.counters["poset.join_meet_queries"] += len(pairs)
        tracer.counters["poset.joins_found"] += sum(j is not None for j, _ in answers)
    with tracer.span("bench.check"):
        for (u, v), (j, m) in zip(pairs, answers):
            upper = minimal_upper_bounds(index, u, v)
            outcome.check(j == (upper[0] if len(upper) == 1 else None), f"join({u},{v})")
            lower = maximal_of_downset(index, index.down[u] & index.down[v])
            outcome.check(m == (lower[0] if len(lower) == 1 else None), f"meet({u},{v})")

    starts = inputs["orbit_starts"]
    reports = tracer.op("pop.sample_orbit", lambda: [orbit(graph, v) for v in starts])
    with tracer.span("bench.check"):
        for v, rep in zip(starts, reports):
            path = rep.trajectory
            outcome.check(
                path[0] == v and rep.length == lengths[v]
                and all(pop_crystal(graph, a) == b for a, b in zip(path, path[1:]))
                and pop_crystal(graph, path[-1]) == path[-1],
                f"orbit({v})",
            )

    # Export last, with the index freed, so that poset.index_rss_delta_mb is
    # the index's growth over the peak that generation left.
    del index
    text = tracer.op("crystal.export", to_json, graph, after=tracing.note_export)
    with tracer.span("bench.check"):
        data = text.encode()
        outcome.check(
            len(data) == exp["json_bytes"]
            and hashlib.sha256(data).hexdigest() == exp["json_sha256"],
            f"to_json: {len(data)} bytes",
        )


def run_large_crystal(inputs, exp, tracer, outcome: Outcome) -> None:
    shape = Partition(tuple(exp["shape"]), exp["n"])
    try:
        _large_phases(shape, inputs, exp, tracer, outcome)
    except Exception:
        _report_exception("large_crystal")
        outcome.fail(expected_operations("large_crystal", exp) - outcome.attempted,
                     "large_crystal raised")


# -- inputs ------------------------------------------------------------------

def prepare(name: str, seed: int, exp: dict, scratch: Path) -> dict:
    """Inputs for one run. Only large_crystal samples anything: the seed
    draws its join/meet pairs, its orbit start vertices and the vertices
    whose index rows are checked."""
    if name == "classify_sweep":
        out = scratch / f"classify-{seed}.csv"
        # A file left by an earlier run must not stand in for this run's output.
        out.unlink(missing_ok=True)
        return {"argv": exp["argv"] + ["--out", str(out)], "out": str(out)}
    if name == "verify_suite":
        return {"argvs": [r["argv"] for r in exp["runs"]]}
    rng = random.Random(seed)
    size = exp["vertices"]
    return {
        "pairs": [tuple(rng.sample(range(size), 2)) for _ in range(exp["pairs"])],
        "orbit_starts": rng.sample(range(size), exp["orbit_starts"]),
        "index_sources": rng.sample(range(size), exp["index_sources"]),
    }


RUNNERS = {
    "classify_sweep": run_classify_sweep,
    "large_crystal": run_large_crystal,
    "verify_suite": run_verify_suite,
}
