"""Exact Cartan calculus on the extended quantum 3d space.

Coordinates x, y, z with xy = q yx, yz = q zy, xz = q zx, extended by
x**-1; differentials, Cartan-Maurer one-forms, partial derivatives,
Lie generators, inner derivations and Lie derivatives, all driven by an
exact normal-ordering rewrite engine over Laurent polynomials in q**(1/2).
"""

from .scalars import QScalar, parse_scalar
from .words import Element, Generator, Sector, Word, make_word
from .relations import (
    RelationError,
    RelationTable,
    Rule,
    builtin_presentation,
    format_presentation,
    load_presentation,
    load_presentation_file,
)
from .normalizer import (
    ConfluenceReport,
    MissingRuleError,
    NormalizationReport,
    check_local_confluence,
    commutator,
    multiply,
    normalize,
    normalize_report,
)
from .report import CheckReport, CheckResult
from .calculus import (
    act,
    check_d2,
    check_d_expansion,
    check_leibniz,
    check_omega_tables,
    check_t_realization,
    exterior_d,
    maurer_substitute,
    omega_expand,
)
from .cartan import (
    check_cartan_tables,
    check_l_realization,
    inner_apply,
    lie_apply,
    verify_table,
)
from .hopf import TensorElement, antipode, check_hopf_axioms, coproduct, counit
from .duality import (
    Monomial,
    check_dual_hopf,
    check_dual_relations,
    check_identification,
    pair,
)
from .parser import ParseError, parse_element

__version__ = "0.1.0"
