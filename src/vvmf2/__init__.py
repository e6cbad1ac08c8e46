"""Exact vector-valued modular forms of minimal weight on Gamma0(2).

The package computes the normalized minimal-weight vector two
independent ways (hypergeometric closed forms and a Frobenius series
recursion), builds weight bases from it, and verifies prime-by-prime
which denominators must appear in the Fourier coefficients.
"""

from .errors import (
    ConfigError,
    ConsistencyError,
    NotAFormError,
    PipelineMismatch,
    TruncationError,
    VVMF2Error,
)
from .quadratic import (
    HalfForm,
    QuadNum,
    denominator_of,
    gen_binomial,
    half_form,
    is_p_integral,
    is_prime,
    legendre,
    norm_trace,
    pochhammer,
)
from .qseries import PureQSeries, equal_through
from .forms import (
    eisenstein_E2,
    eisenstein_E4,
    eta_pow,
    g_slash_S,
    hauptmodul,
    identity_suite,
    modular_D,
    monomial_basis,
    monomial_coordinates,
    theta4_and_E,
    weight2_G,
)
from .params import (
    ExponentData,
    InstanceParams,
    check_assumptions,
    induced_exponent_classes,
    params_from_exponents,
    roots_from_abc,
    seed_exponents,
)
from .minform import (
    MinimalForm,
    SeqTables,
    decompose,
    deriv_components,
    gauss_2f1,
    h_closed,
    h_frobenius,
    minimal_form,
    mlde_residual,
    seq_f,
    tables_DC,
    weight_basis,
)
from .denoms import (
    DenomReport,
    PrimeSets,
    denom_scan,
    pochhammer_numerator_probe,
    prime_sets,
    ubd_general,
    verify_ubd,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConsistencyError",
    "DenomReport",
    "ExponentData",
    "HalfForm",
    "InstanceParams",
    "MinimalForm",
    "NotAFormError",
    "PipelineMismatch",
    "PrimeSets",
    "PureQSeries",
    "QuadNum",
    "SeqTables",
    "TruncationError",
    "VVMF2Error",
    "check_assumptions",
    "decompose",
    "denom_scan",
    "denominator_of",
    "deriv_components",
    "eisenstein_E2",
    "eisenstein_E4",
    "equal_through",
    "eta_pow",
    "g_slash_S",
    "gauss_2f1",
    "gen_binomial",
    "h_closed",
    "h_frobenius",
    "half_form",
    "hauptmodul",
    "identity_suite",
    "induced_exponent_classes",
    "is_p_integral",
    "is_prime",
    "legendre",
    "minimal_form",
    "mlde_residual",
    "modular_D",
    "monomial_basis",
    "monomial_coordinates",
    "norm_trace",
    "params_from_exponents",
    "pochhammer",
    "pochhammer_numerator_probe",
    "prime_sets",
    "roots_from_abc",
    "seed_exponents",
    "seq_f",
    "tables_DC",
    "theta4_and_E",
    "ubd_general",
    "verify_ubd",
    "weight2_G",
    "weight_basis",
]
