"""hopfforge: exact construction and verification of finite-dimensional
Hopf algebras with bilinear coalgebra projections."""

from .cyclotomic import (
    CycScalar, ConductorOverflow, DivisionByZero,
    euler_phi, multiplicative_order, primitive_root,
    q_binomial, q_factorial, q_int, set_conductor_cap, conductor_cap,
)
from .linalg import Mat, Subspace, Tensor3, ShapeMismatch, kernel, image, solve, preimage
from .hopf import (
    AlgebraSC, BialgebraSC, CoalgebraSC, HopfSC,
    check_algebra, check_bialgebra, check_coalgebra, check_hopf,
    compute_antipode, convolution, group_algebra_cyclic, cyclic_character,
    integral, phi_power, psi_power, primitives, skew_primitives,
    verify_ad_integral, verify_character, verify_group_like, wedge, filtration_from,
)
from .yd import (
    YDModule, adjoint_action, adjoint_coaction, braided_tensor_algebra,
    braided_tensor_coalgebra, braiding, check_yd, one_dim_module, trivial_module, yd_tensor,
)
from .cocycle import (
    Bosonization, Cocycle, PreBialgebra, bosonize, check_cocycle, check_prebialgebra,
    is_radford_majid, retraction_diagnostics,
)
from .construct import (
    CompatibleDatum, OreHopf, QuantumLine, YDDatum,
    build_ore_hopf, build_quantum_line, iterated_datum_check, restrict_datum,
    universal_map, validate_compatible_datum, validate_yd_datum,
)
from .analyze import (
    Analysis, AnalysisError, AnalysisReport, DividedPowerBasis, InducedPreBialgebra,
    ProjectionSetup, classify, cocycle_analysis, coinvariants, equivalence_report, induced_structures,
    omega_roundtrip, retraction_tools, setup_from_ore, tau_matrix, thinness_and_basis,
    validate_setup, wedge_layer_of_sigma,
)
from .reports import CheckReport, Report

__version__ = "0.1.0"
