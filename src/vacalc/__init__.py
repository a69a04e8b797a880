"""vacalc: exact symbolic calculator for Lie conformal superalgebras and
vertex algebras.

The layers, bottom up: :mod:`vacalc.scalar` (exact coefficients),
:mod:`vacalc.formal_dist` (distribution calculus in one and two formal
variables), :mod:`vacalc.lie_conformal` (presentations, the bracket table
and the built-ins), :mod:`vacalc.vertex_calc` (normally ordered words and
the lambda-bracket, through sesquilinearity and the Wick recursion; its
engine holds every memo), :mod:`vacalc.mode_algebra` (Fourier-mode
commutators), :mod:`vacalc.checks` (axiom checks), :mod:`vacalc.frontend`
(DSL, queries, rendering, CLI).
"""

from .scalar import Rational, Scalar, binom
from .poly import BracketPoly, substitute_skew
from .lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    ParityError,
    PresentationError,
    UndeclaredSymbolError,
    VacalcError,
    builtin,
    current_algebra,
    free_boson,
    free_fermion,
    neveu_schwarz,
    sl2_current,
    uncharged_superfermions,
    virasoro,
)
from .mode_algebra import (
    ModeExpression,
    ModeSymbol,
    commute,
    mode,
    mode_commutator,
    normalize_derivative_mode,
)
from .vertex_calc import (
    NormalWord,
    VertexElement,
    fermion_conformal_vector,
    mode_of_primary,
    normal_product,
    normal_word,
    nproduct,
    primary_check,
    quasi_assoc_defect_integral,
    quasi_assoc_defect_sum,
    quasi_assoc_rewrite,
    quasi_comm_defect,
    state,
    vacuum,
    weight,
    wick_bracket,
)
from .checks import (
    borcherds_identity_check,
    borcherds_nproducts_check,
    borcherds_sweep,
    check_jacobi,
    check_skew,
    verify_mode_jacobi,
)

__version__ = "0.1.0"
