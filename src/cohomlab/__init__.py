"""Exact group cohomology laboratory for 2x2 matrix groups over Z/p^n.

The package computes spaces of cocycles, coboundaries, and locally trivial
cocycles for finite matrix groups acting on (Z/p^n)^2, entirely in exact
modular arithmetic, and packages reproducible experiments around them.
"""

from .cohom import (
    Cocycle,
    CohomologyReport,
    Engine,
    ModuleAction,
    action_image,
    coboundary_of,
    coboundary_space,
    cocycle_space,
    cohomology_engine,
    h1,
    h1_loc,
    h1_loc_via_restrictions,
    h1loc_witnesses,
    inflation,
    is_coboundary,
    is_cocycle,
    is_locally_trivial,
    locally_trivial_subspace,
    normalize_locally_trivial_cocycle,
    pointwise_stabilizer,
    restriction,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    CohomLabError,
    DimensionMismatch,
    HypothesisViolated,
    NonInvertibleConjugator,
    NonInvertibleGenerator,
    NotASubgroup,
    NotASubmodule,
    NotAUnit,
    StabilizerMismatch,
    WrongLevel,
)
from .experiments import (
    Check,
    ExperimentVerdict,
    falsify_main_theorem,
    run_example6,
    verify_diagonal_triviality,
    verify_oracle_equivalence,
    verify_shape_lemma,
    verify_structure_props,
)
from .galoisdict import (
    ConditionReport,
    det_image,
    det_kernel_trivial,
    evaluate_main_theorem_conditions,
    fixed_points,
    isogeny_condition_p3,
    stable_cyclic_submodules,
)
from .matgrp import (
    ExampleGroup,
    Mat2,
    MatGroup,
    close_group,
    conjugate,
    cyclic_subgroups,
    enumerate_subgroups,
    find_triangularizing_conjugator,
    make_example_group,
    maximal_cyclic_subgroups,
    reduce_mod,
    smallest_nonsquare,
    special_subgroups,
)
from .zmod import (
    ModulusContext,
    Submodule,
    annihilator,
    kernel,
    quotient_decomposition,
    quotient_invariants,
    solve_linear,
    unit_inverse,
)

__version__ = "1.0.0"
