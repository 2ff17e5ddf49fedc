"""Heat flows driven by Riemann zeta and Dirichlet L-function nonlinearities.

Evaluation of Hurwitz/Riemann zeta and Dirichlet L-functions from first
principles, the holomorphic flow s' = lambda L(s) with zero classification,
the reaction-diffusion flow du/dt = Lap(u) + lambda L(u) on a periodic
torus with theorem-shaped envelope/stability/quench checks, and the
certified local-existence constants behind the short-time Picard solver.
"""

from .errors import (AccuracyError, CharacterValidationError,
                     ConfigurationError, ContractionError,
                     CounterexampleError, DegenerateZeroError, DomainError,
                     NumericalFailureError, PoleError,
                     PrecisionFloorError, QuenchSignal, StiffnessError,
                     ZetaflowError)
from .special import (BoundConstants, DEFAULT_CONFIG, EvalConfig,
                      bound_constants, expm1_over, expm1_over_deriv,
                      f_prime_sup_bound, hermite_h, hurwitz_zeta,
                      hurwitz_zeta_deriv, riemann_zeta, riemann_zeta_deriv)
from .dirichlet import (CharacterTable, LFunctionHandle, ReBoundsReport,
                        Sigma0Result, character_from_json,
                        character_to_json, l_eval, l_function,
                        prime_character_group, principal_character,
                        re_bounds_check, sigma0_estimate, sigma1_root,
                        validate_character, zeta_function)
from .ode import (FlowConfig, FlowResult, ZeroRecord, ZeroScan,
                  classify_zero, count_zeros_box, find_critical_zeros,
                  integrate_flow, sink_proportion)
from .pde import (EnvelopeReport, EnvelopeSpec, GridField, PicardResult,
                  RunRecord, SolverConstants, StabilityReport,
                  constant_field, constants_for_datum, disc_random_field,
                  envelope_check, etd_step, fourier_field, heat_semigroup,
                  integrate_pde, local_constants, picard_local_solve,
                  smooth_real_field, stability_experiment,
                  validate_envelope_hypotheses)

__version__ = "0.1.0"
