"""Exact desk-scale arithmetic for distribution algebras of uniform pro-p groups.

The package models, with certified exact arithmetic throughout: a finite
extension K of Q_p (padics), uniform pro-p groups presented by powerful
Lie lattices (groups), the structure constants of their distribution
algebras in the binomial basis (mahler), the truncated Banach-algebra
model with its norms and principal symbols (distalg), the associated
graded ring (grading), the locally analytic quotient with canonical
expansions (quotient), and lower-p-series subalgebra restriction and
transfer (towers).  The cli module wires these into reproducible verification
suites.
"""

from .catalog import abelian, get_group, heisenberg, heisenberg2, o_additive
from .distalg import DistAlgebra, Distribution, mul_tail_bound
from .groups import (
    GroupElement,
    LGroupSpec,
    LieLattice,
    check_p_valuation,
    check_powerful_commutator,
)
from .grading import (
    Symbol,
    SymbolContext,
    check_regular_sequence,
    eliminate_to_first_row,
    finite_rank_quotient,
    quotient_iso_check,
    symbol_class_nonzero,
)
from .mahler import StructureConstants
from .padics import FieldSpec, ResidueElem, ResidueField, Scalar
from .quotient import (
    CanonicalForm,
    KernelFamily,
    build_kernel_family,
    canonicalize,
    domain_smoke_test,
    kernel_symbol,
    kernel_symbol_closed_form,
    kernel_symbol_family,
    orthogonality_check,
    quotient_norm,
)
from .radii import Radius, dominant_log_index, log_tail_exponent, radius_root
from .towers import (
    CosetSystem,
    coset_conditions,
    lower_p_transversal,
    norm_transfer_check,
    orthogonal_system_check,
    restriction_check,
    step_generator,
    step_monomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
