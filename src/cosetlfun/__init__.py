"""Numerical verification toolkit for character sums and central L-values
along cosets of character groups mod prime powers.

Layers, bottom up: exact modular arithmetic (`modular`), characters and
their one-unit logarithm parameter (`characters`), Gauss-sum closed forms
and coset averages (`gauss`), central L-values with tracked error bounds
(`lcentral`), second-moment predictions along cosets (`moments`), the
shift-and-average inequalities (`vdc`), hybrid-window scans (`hybrid`),
and a reporting CLI (`cli`).
"""

from .errors import (
    BadShiftBound,
    ConfigError,
    CosetLFunError,
    DegenerateConductor,
    InvalidModulus,
    NotInvertible,
    NotOneUnit,
    NotPrimitive,
    OddBase,
    OddCharacter,
    PoleAtOne,
    PreconditionViolated,
    PrincipalCharacter,
    QuadratureTooCoarse,
    RegimeMismatch,
    SharedFactor,
    UnsupportedRegime,
)
from .modular import (
    MAX_MODULUS,
    PrimePowerModulus,
    divisor_count,
    epsilon_q,
    is_prime,
    jacobi_symbol,
    mod_inverse,
    modulus,
    padic_log,
    root_of_unity,
    signed_lift,
)
from .characters import (
    CosetSpec,
    DirichletCharacter,
    character_with_ell,
    enumerate_coset,
    phi_prime_power,
    postnikov_ell,
)
from .gauss import (
    GaussSumResult,
    coset_epsilon_average,
    coset_epsilon_average_closed,
    eps_regimes,
    gauss_ratio_check,
    gauss_sum_brute,
    gauss_sum_odoni,
    gauss_sums,
    near_one_root_number_check,
    root_number,
)
from .lcentral import (
    LValue,
    bernoulli_even,
    completed_l_value,
    digamma,
    euler_gamma,
    functional_equation_residual,
    l_value,
)
from .moments import (
    EmpiricalMoment,
    MomentPrediction,
    MomentReport,
    RecipeParams,
    classify_regime,
    empirical_coset_moment,
    moment_report,
    predict_A,
    predict_A_prime,
    predict_D,
    predict_moment,
    recipe_params,
)
from .vdc import (
    FiniteSequence,
    amplified_l2_identity,
    coset_shift_identity,
    random_sequence,
    twisted_sum,
    vdc_inequality_check,
)
from .hybrid import (
    HybridQuadrature,
    Lemma9Scan,
    char_sum_S,
    hybrid_moment_quadrature,
    lemma9_scan,
)
from .report import rel_err, render_rows

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
