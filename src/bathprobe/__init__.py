"""Dephasing qubit probes of a bosonic environment.

Exact pure-dephasing dynamics of one- and two-qubit probes, quantum and
classical Fisher information for estimating the environment's cutoff
frequency, coupling strength, and temperature, and a discrete-mode oracle
that validates the closed forms by brute force.
"""

from .correlations import CorrelationFactors
from .dynamics import (CORRELATED, FACTORIZED, SINGLE_QUBIT_PROBE,
                       TWO_QUBIT_TRACED, Estimand, ProbeConfig, QubitState,
                       dephasing_factors, reduced_qubit_state)
from .fisher import (FisherOptimum, cfi, optimal_angle, optimize_qfi_over_time,
                     optimize_variants, qfi_closed)
from .oracle import (DiscreteBath, DiscreteFactors, compare_report,
                     discrete_factors, evolve_correlated, evolve_factorized,
                     prepare_correlated)
from .quadrature import QuadratureError, QuadratureResult, quadrature_factor
from .spectral import (BathState, DephasingFactors, NumericalError,
                       SpectralDensity, c_shift, delta_factor, gamma_th,
                       gamma_vac, phi_factor, spectral_density)
from .verify import (cfi_born, eigendecompose, qfi_spectral, state_derivative,
                     two_qubit_state)

__version__ = "0.1.0"

__all__ = [
    "SpectralDensity", "BathState", "DephasingFactors", "spectral_density",
    "gamma_vac", "gamma_th",
    "delta_factor", "phi_factor", "c_shift", "quadrature_factor",
    "QuadratureError", "QuadratureResult",
    "NumericalError",
    "CorrelationFactors",
    "ProbeConfig", "QubitState", "TWO_QUBIT_TRACED",
    "SINGLE_QUBIT_PROBE", "FACTORIZED", "CORRELATED", "dephasing_factors",
    "two_qubit_state", "reduced_qubit_state", "eigendecompose",
    "Estimand", "FisherOptimum", "qfi_closed", "qfi_spectral",
    "state_derivative", "cfi", "cfi_born", "optimal_angle",
    "optimize_qfi_over_time", "optimize_variants",
    "DiscreteBath", "DiscreteFactors", "discrete_factors",
    "evolve_factorized", "prepare_correlated", "evolve_correlated",
    "compare_report",
]
