"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json holds the workloads and, for every metric, its name, unit,
direction and (end-to-end only) regression bound. This module adds what
that file has no key for: what each end-to-end metric measures, and for
each per-layer metric the end-to-end metric it should move and the
workloads on which it should move it. On the other workloads the
prediction is no change.

End-to-end metrics are what a user of crystal-pop sees and are measured
with tracing off; their times are calibrated for the host's speed
(calibrate.py). Per-layer metrics come from the traced run, except
host.wall_s (the raw, uncalibrated time of the untraced iterations) and
host.reference_ms (the calibration reference's time), which show the
host's speed during the run.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import NamedTuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

MEANING = {
    "calibrated_wall_s": "time in calls into crystalpop, calibrated; median of fresh processes",
    "setup_s": "process start to workload ready (interpreter, import, inputs), calibrated",
    "peak_rss_mb": "ru_maxrss of the workload process; median of fresh processes",
}

_CS, _LC, _VS = "classify_sweep", "large_crystal", "verify_suite"

# Per-layer metric -> (end-to-end metric it should move, workloads it moves it on).
MOVES = {
    "crystal.generate_s": ("calibrated_wall_s", (_CS, _LC)),
    "crystal.generate_calls": ("calibrated_wall_s", (_CS, _LC)),
    "crystal.vertices": ("calibrated_wall_s", (_CS, _LC)),
    "crystal.edges": ("calibrated_wall_s", (_CS, _LC)),
    "crystal.vertices_per_s": ("calibrated_wall_s", (_CS, _LC)),
    "crystal.export_s": ("calibrated_wall_s", (_LC,)),
    "crystal.export_bytes": ("calibrated_wall_s", (_LC,)),
    "poset.index_s": ("peak_rss_mb", (_LC,)),
    "poset.index_bytes": ("peak_rss_mb", (_LC,)),
    "poset.index_rss_delta_mb": ("peak_rss_mb", (_LC,)),
    "poset.is_lattice_s": ("calibrated_wall_s", (_CS,)),
    "poset.is_lattice_calls": ("calibrated_wall_s", (_CS,)),
    "poset.lattice_pairs": ("calibrated_wall_s", (_CS,)),
    "poset.find_bowtie_s": ("calibrated_wall_s", (_LC,)),
    "poset.verify_bowtie_s": ("calibrated_wall_s", (_LC,)),
    "poset.join_meet_s": ("calibrated_wall_s", (_LC,)),
    "poset.join_meet_queries": ("calibrated_wall_s", (_LC,)),
    "poset.join_found_ratio": ("calibrated_wall_s", (_LC,)),
    "pop.max_orbit_s": ("calibrated_wall_s", (_LC,)),
    "pop.orbit_calls": ("calibrated_wall_s", (_LC,)),
    **{f"pop.orbit_len.{k}": ("calibrated_wall_s", (_LC,)) for k in range(1, 7)},
    "pop.poppable_s": ("calibrated_wall_s", (_VS,)),
    "pop.quotient_agreement_s": ("calibrated_wall_s", (_VS,)),
    "key.family_s": ("calibrated_wall_s", (_VS,)),
    "key.family_members": ("calibrated_wall_s", (_VS,)),
    "key.properties_s": ("calibrated_wall_s", (_VS,)),
    "key.properties_checks": ("calibrated_wall_s", (_VS,)),
    "key.pop_key_s": ("calibrated_wall_s", (_VS,)),
    "key.pop_key_checks": ("calibrated_wall_s", (_VS,)),
    "perm.lemma_s": ("calibrated_wall_s", (_VS,)),
    "perm.lemma_checks": ("calibrated_wall_s", (_VS,)),
    "perm.bruhat_calls": ("calibrated_wall_s", (_VS,)),
    "perm.weak_calls": ("calibrated_wall_s", (_VS,)),
    "perm.order_s": ("calibrated_wall_s", (_VS,)),
    "classifier.sweep_s": ("calibrated_wall_s", (_CS,)),
    "classifier.shapes": ("calibrated_wall_s", (_CS,)),
    "classifier.lattices": ("calibrated_wall_s", (_CS,)),
    "classifier.self_s": ("calibrated_wall_s", (_CS,)),
    "classifier.shape_p50_ms": ("calibrated_wall_s", (_CS,)),
    "classifier.shape_p90_ms": ("calibrated_wall_s", (_CS,)),
    "cli.self_s": ("calibrated_wall_s", (_CS, _VS)),
    "trace.overhead_s": ("calibrated_wall_s", (_CS, _LC, _VS)),
    "host.wall_s": ("calibrated_wall_s", (_CS, _LC, _VS)),
    # The host's speed: no change to crystalpop should move it.
    "host.reference_ms": ("calibrated_wall_s", ()),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str
    on: tuple[str, ...]


END_TO_END = tuple(EndToEnd(**m, meaning=MEANING[m["name"]]) for m in SPEC["end_to_end"])

PER_LAYER = tuple(PerLayer(**m, moves=MOVES[m["name"]][0], on=MOVES[m["name"]][1])
                  for m in SPEC["per_layer"])

if set(MOVES) != {m.name for m in PER_LAYER}:
    raise ValueError("MOVES and the per_layer metrics of BENCHMARK.json name different metrics")

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
