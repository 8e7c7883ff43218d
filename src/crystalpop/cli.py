"""Command-line surface: generation, export, dynamics, lattice analysis,
sweeps, and verification suites.

Exit codes: 0 success, 1 a mathematical property check failed, 2 invalid
input. Output is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from .classifier import classification_sweep, predict_lattice
from .crystal import (
    SizeLimitExceeded,
    default_cap,
    generate_crystal,
    to_dot,
    to_json,
)
from .key import build_demazure_family, verify_key_properties, verify_pop_key_inequality
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
from .tableaux import (
    TableauError,
    format_tableau,
    parse_partition,
    parse_tableau,
)


class PropertyFailure(RuntimeError):
    """A mathematical check came out false; maps to exit code 1."""


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph(args):
    shape = parse_partition(args.shape, args.n)
    if not shape.parts:
        raise TableauError("shape must be a nonzero partition")
    cap = args.cap if args.cap is not None else default_cap()
    return generate_crystal(shape, cap=cap)


def cmd_gen(args) -> str:
    graph = _graph(args)
    if args.format == "dot":
        return to_dot(graph)
    if args.format == "json":
        return to_json(graph)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["src", "dst", "color"])
        for src, dst, color in graph.edges():
            writer.writerow([src, dst, color])
        return buf.getvalue()
    lines = [f"crystal {args.shape} n={graph.n}: {graph.num_vertices} vertices"]
    lines += [f"  {v}: {format_tableau(t)}" for v, t in enumerate(graph.vertices)]
    lines += [f"  {src} -> {dst} (F{c})" for src, dst, c in graph.edges()]
    return "\n".join(lines) + "\n"


def cmd_pop(args) -> str:
    graph = _graph(args)
    if args.element:
        t = parse_tableau(args.element, graph.n)
        if t.shape != graph.shape:
            raise TableauError(f"element has shape {t.shape.parts}, crystal has {graph.shape.parts}")
        rep = orbit(graph, graph.vertex_id(t))
        lines = [format_tableau(graph.vertices[v]) for v in rep.trajectory]
        return "\n".join(lines) + f"\norbit length {rep.length}\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "tableau", "orbit_length"])
        for v, (t, size) in enumerate(zip(graph.vertices, orbit_lengths(graph))):
            writer.writerow([v, format_tableau(t), size])
        return buf.getvalue()
    size, witness = max_orbit_size(graph)
    if args.format == "json":
        payload = {
            "lambda": list(graph.shape.parts),
            "n": graph.n,
            "max_orbit": size,
            "coxeter_number": graph.n + 1,
            "witness": format_tableau(graph.vertices[witness]),
        }
        return json.dumps(payload, indent=2) + "\n"
    return (
        f"max orbit {size} (coxeter number {graph.n + 1}), "
        f"witness {format_tableau(graph.vertices[witness])}\n"
    )


def cmd_perm_pop(args) -> str:
    lines = [str(w) for w in forward_orbit(parse_permutation(args.element), pop_permutation)]
    return "\n".join(lines) + f"\norbit length {len(lines)}\n"


def cmd_lattice(args) -> str:
    graph = _graph(args)
    prediction = predict_lattice(graph.shape)
    index = ReachabilityIndex(graph)
    result = is_lattice(graph, index)
    if result.is_lattice != prediction.is_lattice_predicted:
        raise PropertyFailure(
            f"prediction {prediction.is_lattice_predicted} disagrees with "
            f"brute force {result.is_lattice} for {graph.shape.parts}, n={graph.n}"
        )
    lines = [
        f"shape {args.shape} n={graph.n}: "
        + ("lattice" if result.is_lattice else "not a lattice")
    ]
    if prediction.matched_clause:
        lines.append(f"clause: {prediction.matched_clause}")
    if not result.is_lattice:
        cert = find_bowtie(graph, index)
        if cert is None or not verify_bowtie(graph, cert, index):
            raise PropertyFailure("non-lattice without a verifiable bowtie")
        for name, v in (("t1", cert.t1), ("t2", cert.t2), ("u1", cert.u1), ("u2", cert.u2)):
            lines.append(f"bowtie {name}: {format_tableau(graph.vertices[v])}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> str:
    cap = args.cap if args.cap is not None else default_cap()
    report = classification_sweep(args.max_n, args.max_cells, vertex_cap=cap, jobs=args.jobs)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["lambda", "n", "predicted", "brute_force", "clause", "vertices", "millis"])
    for row in report.rows:
        writer.writerow([
            ",".join(map(str, row.parts)), row.n, row.predicted,
            "skipped" if row.skipped else row.brute_force,
            row.clause or "", row.vertices if row.vertices is not None else "",
            f"{row.millis:.1f}",
        ])
    text = buf.getvalue()
    for row in report.skipped:
        text += f"# skipped over cap: {row.parts} n={row.n}\n"
    if report.disagreements:
        sys.stdout.write(text)
        bad = report.disagreements[0]
        raise PropertyFailure(f"classification disagrees at {bad.parts}, n={bad.n}")
    return text


def cmd_verify(args) -> str:
    lines = []
    if args.m is not None:
        report = verify_section3_lemmas(args.m)
        lines.append(f"quotient/pop lemmas on S_{args.m}: {report.checked} checks")
        if not report.ok:
            lines.extend(report.violations)
            raise PropertyFailure("\n".join(lines))
        lines.append("all pass")
        return "\n".join(lines) + "\n"
    graph = _graph(args)
    lines.append(f"crystal {args.shape} n={graph.n}: {graph.num_vertices} vertices")
    failures = []
    if is_poppable(graph):
        lines.append("poppable: pass")
    else:
        failures.append("poppable: FAIL")
    if pop_agreement_on_quotient(graph):
        lines.append("pop agreement on embedded quotient: pass")
    else:
        failures.append("pop agreement on embedded quotient: FAIL")
    family = build_demazure_family(graph)
    kp = verify_key_properties(graph, family)
    lines.append(f"key properties: {'pass' if kp.ok else 'FAIL'} ({kp.checked} checks)")
    if not kp.ok:
        failures.extend(kp.violations)
    ki = verify_pop_key_inequality(graph, family)
    lines.append(f"pop-key inequality: {'pass' if ki.ok else 'FAIL'} ({ki.checked} checks)")
    if not ki.ok:
        failures.extend(ki.violations)
    if failures:
        raise PropertyFailure("\n".join(lines + failures))
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crystal-pop",
        description="Crystal pop-stack sorting and lattice analysis",
    )
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.m is None and (args.shape is None or args.n is None):
        sys.stderr.write("verify needs either --shape/--n or --m\n")
        return 2
    try:
        text = args.func(args)
    except (PropertyFailure, NonTermination) as exc:
        sys.stderr.write(f"property check failed: {exc}\n")
        return 1
    except (TableauError, SizeLimitExceeded, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    _emit(text, getattr(args, "out", None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
