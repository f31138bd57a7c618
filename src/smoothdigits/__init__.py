"""smoothdigits: enumeration, factorization and explicit bounds for
integers with few nonzero digits in an integer base."""

__version__ = "0.1.0"

from .digits import (
    DigitExpansion,
    block_count,
    condition_3_2,
    decompose,
    nz_count,
    recompose,
)
from .factor import (
    DEFAULT_BUDGET,
    Factorization,
    IncompleteFactorizationError,
    PrimeSet,
    factorize,
    greatest_prime_factor,
    is_prime,
    is_s_unit,
    is_smooth,
    omega,
    p_adic_valuation,
    radical,
    s_part,
    smallest_prime_factor,
)
from .sequences import (
    DigitBudget,
    PowerSumSpec,
    power_sum_sequence,
    smooth_sequence,
    sparse_sequence,
    sparse_sequence_f,
)
from .bounds import (
    BoundInput,
    ThresholdParams,
    TraceReport,
    cor14_check,
    cor15_threshold,
    ell_select,
    lemma31_nk_bound,
    lemma31_trace,
    matveev_lower_bound,
    psi,
    remark45_check,
    thm11_threshold,
    thm12_default_constants,
    thm12_gap,
    thm13_threshold,
    thm41_threshold,
    yu_valuation_bound,
)
from .experiments import (
    CyclotomicReport,
    SearchHit,
    StewartRow,
    SurveyRecord,
    cyclotomic_smooth,
    cyclotomic_value,
    smooth_sparse_search,
    sparse_survey,
    stewart_survey,
    window_minima,
)
