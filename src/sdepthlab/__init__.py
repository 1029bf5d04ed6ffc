"""Exact Stanley depth computations for monomial ideals and quotients."""

from .monomials import (
    ArityMismatch,
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    as_monomial,
    contains,
    divides,
    ideal_intersection,
    ideal_product,
    lcm,
    maximal_power,
    minimalize,
    num_min_gens,
    saturate,
    saturate_variable,
    unit_ideal,
    zero_ideal,
)
from .formats import (
    IdealParseError,
    ideal_str,
    ideal_to_structured,
    ideal_to_text,
    monomial_str,
    parse_ideal,
    parse_ideal_structured,
    parse_ideal_text,
)
from .posets import (
    CharPoset,
    alpha_enumerate,
    alpha_formula,
    build_poset,
    default_box,
    maximal_power_poset,
)
from .partitions import (
    Interval,
    IntervalPartition,
    SdepthCertificate,
    SearchStats,
    SearchTimeout,
    StanleyDecomposition,
    counting_prune,
    exists_partition,
    sdepth_ideal,
    sdepth_poset,
    sdepth_quotient,
    to_stanley_decomposition,
    verify_certificate,
    verify_partition,
    verify_stanley_decomposition,
)
from .structure import (
    ComparisonReport,
    MkiRow,
    SaturationReport,
    SweepRow,
    check_counting_inequality,
    conjecture_bound,
    conjecture_sweep,
    ideal_saturation_report,
    ideal_vs_quotient_report,
    janet_decomposition,
    mki_sweep,
    sdepth_zero_quotient,
)

ENGINE_VERSION = "0.4.0"
__version__ = ENGINE_VERSION
