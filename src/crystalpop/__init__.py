"""Crystal pop-stack sorting: type-A crystal graphs over semistandard Young
tableaux, their poset structure, pop-stack dynamics, the key map, and a
closed-form lattice classification with brute-force cross-validation."""

from .classifier import (
    Classification,
    HypothesisViolated,
    bowtie_A,
    bowtie_B,
    bowtie_C_via_duality,
    bowtie_E,
    classification_sweep,
    nojoin_D,
    predict_lattice,
)
from .crystal import (
    CrystalGraph,
    SizeLimitExceeded,
    dual_crystal,
    generate_crystal,
    lowering_F,
    raising_E,
    to_dot,
    to_json,
)
from .key import all_keys, build_demazure_family
from .perm import Permutation, coxeter_pop, parse_permutation
from .pop import max_orbit_size, orbit, pop_crystal, pop_permutation, semilattice_pop
from .poset import BowtieCertificate, ReachabilityIndex, find_bowtie, is_lattice, join, meet
from .tableaux import Partition, Tableau, parse_partition, parse_tableau

__version__ = "0.1.0"

__all__ = [
    "BowtieCertificate",
    "Classification",
    "CrystalGraph",
    "HypothesisViolated",
    "Partition",
    "Permutation",
    "ReachabilityIndex",
    "SizeLimitExceeded",
    "Tableau",
    "all_keys",
    "bowtie_A",
    "bowtie_B",
    "bowtie_C_via_duality",
    "bowtie_E",
    "build_demazure_family",
    "classification_sweep",
    "coxeter_pop",
    "dual_crystal",
    "find_bowtie",
    "generate_crystal",
    "is_lattice",
    "join",
    "lowering_F",
    "max_orbit_size",
    "meet",
    "nojoin_D",
    "orbit",
    "parse_partition",
    "parse_permutation",
    "parse_tableau",
    "pop_crystal",
    "pop_permutation",
    "predict_lattice",
    "raising_E",
    "semilattice_pop",
    "to_dot",
    "to_json",
]
