"""Census and verification tools for elliptic-curve group orders.

The library counts points on elliptic curves over prime fields, classifies
the group orders n(p) = p + 1 - a_p as prime, Fermat pseudoprime, or
composite, and checks the matrix class counts, sifting densities, and
multiplicative-order statistics that govern how often each case occurs.
"""

from .arith import (
    carmichael_lambda,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    prime_factors,
)
from .census import (
    CensusResult,
    CensusSummary,
    CongruenceRow,
    MultiplicityStats,
    PomeranceDecomposition,
    congruence_stats,
    decompose_pseudoprimes,
    multiplicity_stats,
    run_census,
    smooth_split,
    summarize,
    write_records_csv,
    write_summary_json,
)
from .curves import (
    BadReductionError,
    ReducedCurve,
    SingularCurveError,
    TraceRecord,
    WeierstrassCurve,
    builtin_curves,
    count_points,
    discriminant,
    get_curve,
    load_curve_file,
    naive_count,
    parse_curve_line,
    reduce_mod,
    trace_record,
)
from .gl2 import (
    ClassCountTable,
    EnumerationLimitError,
    LiftCheck,
    RatioBounds,
    class_count_formula,
    class_count_table,
    class_density,
    gl2_order,
    identity_lift_bound,
    identity_lift_count,
    lifting_check,
    predicted_class_count,
    ratio_bounds_check,
)
from .primes import (
    CutoffError,
    PrimeSegment,
    iter_prime_segments,
    primes_up_to,
    segment_bounds,
)
from .pseudoprimes import (
    NoCrtSolutionError,
    OrderLevelReport,
    OrderStats,
    PseudoprimeVerdict,
    classify,
    count_by_order,
    crt_residue,
    fermat_holds,
    multiplicative_order,
    nord_bound,
    order_census,
    order_level_report,
    order_stats,
    pomerance_scale,
    product_tail_sum,
    pseudoprimes_below,
    tail_sum,
    tail_sum_exact,
)
from .sieve import (
    SieveParams,
    SieveReport,
    build_sieve_report,
    count_envelope,
    density_product,
    empirical_S,
    empirical_T,
    euler_constant_product,
    linear_sieve_F,
    mertens_ratio,
    preset_params,
    sieve_density,
)
