"""Alternating and symmetric group actions on closed orientable surfaces.

Classifies Sym(n)- and Alt(n)-actions up to weak conjugacy, computes cyclic
factors of elements inside an action, decides weak generation of a pair of
periodic maps, and settles liftability and extension questions for
involutions on the quotient orbifold.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .perm import CycleType, Perm, parse_perm
from .groups import (GroupSpec, alt, alt_c2, are_conjugate, centralizer_order,
                     commutator_witness, generates, parse_group, sym)
from .orbifold import (CyclicDataSet, Signature, enumerate_signatures,
                       parse_cyclic, rh_genus, validate_cyclic)
from .datasets import (ALTERNATING, SYMMETRIC, GroupDataSet, canonical_form,
                       dataset, equivalent, format_dataset, parse_dataset,
                       validate)
from .vectors import (GeneratingVector, SearchBudget, enumerate_vectors,
                      enumerate_weak_classes)
from .factors import (cyclic_factor, fixed_point_count, is_hyperelliptic,
                      is_irreducible, obstruction_report, standard_factors,
                      weakly_generates)
from .lifting import (InvolutionDescent, LiftVerdict, admissible_permutations,
                      decide_lift, free_action_analysis, index2_restrict,
                      psi_map, self_normalizing)

__all__ = [
    "CycleType", "Perm", "parse_perm",
    "GroupSpec", "alt", "alt_c2", "sym", "parse_group", "are_conjugate",
    "centralizer_order", "commutator_witness", "generates",
    "CyclicDataSet", "Signature", "enumerate_signatures", "parse_cyclic",
    "rh_genus", "validate_cyclic",
    "ALTERNATING", "SYMMETRIC", "GroupDataSet", "canonical_form", "dataset",
    "equivalent", "format_dataset", "parse_dataset", "validate",
    "GeneratingVector", "SearchBudget", "enumerate_vectors",
    "enumerate_weak_classes",
    "cyclic_factor", "fixed_point_count", "is_hyperelliptic",
    "is_irreducible", "obstruction_report",
    "standard_factors", "weakly_generates",
    "InvolutionDescent", "LiftVerdict", "admissible_permutations",
    "decide_lift", "free_action_analysis", "index2_restrict", "psi_map",
    "self_normalizing",
]
