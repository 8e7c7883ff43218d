"""Command-line surface: generation, export, dynamics, lattice analysis,
sweeps, and verification suites.

Exit codes: 0 success, 1 a mathematical property check failed, 2 invalid
input. Output is byte-deterministic for fixed inputs, except the millis
column of classify, the wall time spent on each shape.

Each command returns its output as a list or generator of text blocks, and
_emit writes them in order: the whole-graph outputs (gen, pop --format csv)
are built a block of crystal.BLOCK vertices at a time, so only one block's
line and edge strings live at once. A command generates its crystal and
runs every check that can fail before it returns, so a failing command
opens no output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from itertools import chain, count, islice
from typing import Iterable, Optional

from .classifier import classification_sweep, predict_lattice
from .crystal import (
    BLOCK, SizeLimitExceeded, default_cap, dot_blocks, edge_blocks, generate_crystal, json_blocks,
    text_columns, vertex_blocks,
)
from .key import (
    InconsistentFamily,
    NonUniqueMinimum,
    all_keys,
    build_demazure_family,
    verify_key_properties,
    verify_pop_key_inequality,
)
from .perm import parse_permutation, verify_section3_lemmas
from .pop import (
    NonTermination,
    forward_orbit,
    is_poppable,
    max_orbit_size,
    orbit,
    orbit_lengths,
    pop_agreement_on_quotient,
    pop_permutation,
)
from .poset import ReachabilityIndex, find_bowtie, is_lattice, verify_bowtie
from .tableaux import TableauError, format_rows, parse_partition, parse_tableau


class PropertyFailure(RuntimeError):
    """A mathematical check came out false; maps to exit code 1."""


def _emit(blocks: Iterable[str], out: Optional[str]) -> None:
    """Write blocks in order to the file out, or to stdout if out is None."""
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left: drop the rest, here and at exit
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())


def _csv(header: list[str], rows) -> Iterable[str]:
    """The header and rows as csv.writer text, with its CRLF line endings, a
    block of BLOCK rows at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    rows = iter(rows)
    while block := buf.getvalue():
        yield block
        buf.seek(0)
        buf.truncate()
        writer.writerows(islice(rows, BLOCK))


def _graph(args):
    shape = parse_partition(args.shape, args.n)
    if not shape.parts:
        raise TableauError("shape must be a nonzero partition")
    return generate_crystal(shape, cap=args.cap)


def cmd_gen(args) -> Iterable[str]:
    graph = _graph(args)
    if args.format == "dot":
        return dot_blocks(graph)
    if args.format == "json":
        return json_blocks(graph)
    colors = range(1, graph.n + 1)
    if args.format == "csv":
        tails = [f",{c}\r\n" for c in colors]
        return chain(["src,dst,color\r\n"], edge_blocks(graph, "", ",", tails))
    return chain([f"crystal {args.shape} n={graph.n}: {graph.num_vertices} vertices\n"],
                 vertex_blocks(graph, "  ", ": ", "\n"),
                 edge_blocks(graph, "  ", " -> ", [f" (F{c})\n" for c in colors]))


def cmd_pop(args) -> Iterable[str]:
    if args.element is not None and args.format != "text":
        raise ValueError(f"--element prints a text trajectory, not --format {args.format}")
    graph = _graph(args)
    if args.element is not None:
        t = parse_tableau(args.element, graph.n)
        if t.shape != graph.shape:
            raise TableauError(f"element has shape {t.shape.parts}, crystal has {graph.shape.parts}")
        rep = orbit(graph, graph.vertex_id(t))
        lines = [format_rows(graph.rows(v)) for v in rep.trajectory]
        return ["\n".join(lines) + f"\norbit length {rep.length}\n"]
    if args.format == "csv":
        lengths = orbit_lengths(graph)
        texts = chain.from_iterable(map(str.__add__, *pair) for pair in text_columns(graph))
        return _csv(["id", "tableau", "orbit_length"], zip(count(), texts, lengths))
    size, witness = max_orbit_size(graph)
    if args.format == "json":
        payload = {
            "lambda": list(graph.shape.parts),
            "n": graph.n,
            "max_orbit": size,
            "coxeter_number": graph.n + 1,
            "witness": format_rows(graph.rows(witness)),
        }
        return [json.dumps(payload, indent=2) + "\n"]
    return [
        f"max orbit {size} (coxeter number {graph.n + 1}), "
        f"witness {format_rows(graph.rows(witness))}\n"
    ]


def cmd_perm_pop(args) -> list[str]:
    lines = [str(w) for w in forward_orbit(parse_permutation(args.element), pop_permutation)]
    return ["\n".join(lines) + f"\norbit length {len(lines)}\n"]


def cmd_lattice(args) -> list[str]:
    graph = _graph(args)
    prediction = predict_lattice(graph.shape)
    result = is_lattice(graph)
    if result.is_lattice != prediction.is_lattice_predicted:
        raise PropertyFailure(
            f"prediction {prediction.is_lattice_predicted} disagrees with "
            f"brute force {result.is_lattice} for {graph.shape.parts}, n={graph.n}"
        )
    lines = [f"shape {args.shape} n={graph.n}: "
             + ("lattice" if result.is_lattice else "not a lattice")]
    if prediction.matched_clause:
        lines.append(f"clause: {prediction.matched_clause}")
    if not result.is_lattice:
        index = ReachabilityIndex(graph)
        cert = find_bowtie(graph, index)
        if cert is None or not verify_bowtie(graph, cert, index):
            raise PropertyFailure("non-lattice without a verifiable bowtie")
        for name, v in (("t1", cert.t1), ("t2", cert.t2), ("u1", cert.u1), ("u2", cert.u2)):
            lines.append(f"bowtie {name}: {format_rows(graph.rows(v))}")
    return ["\n".join(lines) + "\n"]


def cmd_classify(args) -> list[str]:
    report = classification_sweep(args.max_n, args.max_cells, vertex_cap=args.cap, jobs=args.jobs)
    blocks = [*_csv(["lambda", "n", "predicted", "brute_force", "clause", "vertices", "millis"], (
        (",".join(map(str, row.parts)), row.n, row.predicted,
         "skipped" if row.skipped else row.brute_force,
         row.clause or "", row.vertices if row.vertices is not None else "",
         f"{row.millis:.1f}")
        for row in report.rows
    ))]
    for row in report.skipped:
        # Same line ending as the csv.writer rows above.
        blocks.append(f"# skipped over cap: {row.parts} n={row.n}\r\n")
    if report.disagreements:
        _emit(blocks, args.out)
        bad = report.disagreements[0]
        raise PropertyFailure(f"classification disagrees at {bad.parts}, n={bad.n}")
    return blocks


def cmd_verify(args) -> list[str]:
    lines = []
    if args.m is not None:
        report = verify_section3_lemmas(args.m)
        lines.append(f"quotient/pop lemmas on S_{args.m}: {report.checked} checks")
        if not report.ok:
            lines.extend(report.violations)
            raise PropertyFailure("\n".join(lines))
        lines.append("all pass")
        return ["\n".join(lines) + "\n"]
    graph = _graph(args)
    lines.append(f"crystal {args.shape} n={graph.n}: {graph.num_vertices} vertices")
    failures = []
    if is_poppable(graph):
        lines.append("poppable: pass")
    else:
        failures.append("poppable: FAIL")
    family = build_demazure_family(graph)
    if pop_agreement_on_quotient(graph, family.extremal):
        lines.append("pop agreement on embedded quotient: pass")
    else:
        failures.append("pop agreement on embedded quotient: FAIL")
    kappa = all_keys(graph, family)
    for label, check in (("key properties", verify_key_properties),
                         ("pop-key inequality", verify_pop_key_inequality)):
        report = check(graph, kappa)
        lines.append(f"{label}: {'pass' if report.ok else 'FAIL'} ({report.checked} checks)")
        failures.extend(report.violations)
    if failures:
        raise PropertyFailure("\n".join(lines + failures))
    return ["\n".join(lines) + "\n"]


@cache  # built by the first main call: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal-pop", description="Crystal pop-stack sorting and lattice analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def shaped(p):
        p.add_argument("--shape", required=True, help="partition, e.g. 2,1")
        p.add_argument("--n", type=int, required=True, help="rank (entries up to n+1)")
        p.add_argument("--cap", type=int, default=None, help="vertex cap override")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("gen", help="generate and export a crystal")
    shaped(p)
    p.add_argument("--format", choices=["dot", "json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pop", help="pop-stack orbits on a crystal")
    shaped(p)
    p.add_argument("--element", default=None, help="tableau, e.g. 1,1/2")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=cmd_pop)

    p = sub.add_parser("perm-pop", help="pop-stack orbit of a permutation")
    p.add_argument("--element", required=True, help="one-line permutation, e.g. 532481976")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_perm_pop)

    p = sub.add_parser("lattice", help="lattice verdict with certificate")
    shaped(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("classify", help="closed form vs brute force sweep")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-cells", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="property suites on a crystal or on S_m")
    p.add_argument("--shape", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="run the S_m lemma suite instead")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.m is None and (args.shape is None or args.n is None):
        sys.stderr.write("verify needs either --shape/--n or --m\n")
        return 2
    if args.command == "verify" and args.m is not None and (args.shape, args.n) != (None, None):
        sys.stderr.write("verify takes either --shape/--n or --m, not both\n")
        return 2
    try:
        if "cap" in vars(args):  # read the environment once, for every command with --cap
            args.cap = default_cap(args.cap)
        _emit(args.func(args), getattr(args, "out", None))
    except (PropertyFailure, NonTermination, InconsistentFamily, NonUniqueMinimum) as exc:
        sys.stderr.write(f"property check failed: {exc}\n")
        return 1
    except (TableauError, SizeLimitExceeded, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
