"""quadsums: exact evaluation of exponential sums of quadratic functions
over finite fields of odd characteristic.

The sums in question are sum over x in GF(p^N) of e(f(x)) with
e(y) = exp(2*pi*i*Tr(y)/p) and f a sum of terms a_i x^(p^alpha_i + 1).
Every such value equals t * g_p^(N-l) * p^l for the type t and nullity l
of the trace quadratic form, with g_p the quadratic Gauss sum; this
package computes (t, l) exactly, by direct diagonalization at small
degrees and by lift formulas up the extension tower, and cross-checks
values in Z[zeta_p] against brute-force enumeration.

Quick start::

    from quadsums import QuadFunc, evaluate, verify

    f = QuadFunc.from_dense(5, [1, 2, 3, 4, 1])   # x^2+2x^6+3x^26+4x^126+x^626
    v = evaluate(f, 13)                           # over GF(5^13)
    print(v.exact_str(), v.to_cyclotomic())
    print(verify(f, 2))                           # exact equality vs enumeration
"""

from ._numtheory import multiplicative_order
from .cyclotomic import (
    CyclotomicInt,
    ExpSumValue,
    cyc_from_trace_counts,
    expsum_to_cyclotomic,
    gauss_cyclotomic,
)
from .evaluator import EvalPlan, VerifyReport, evaluate, plan, verify
from .fieldcore import (
    FieldCtx,
    FieldElem,
    Poly,
    build_field_ctx,
    embed_element,
    embedding_roots,
    linearized_gcd_deg,
)
from .lifts import (
    ShiftedSum,
    gcd_plus_minus,
    gcd_plus_plus,
    lift_odd_prime,
    lift_p,
    lift_p_value,
    lift_two,
    monomial_eval,
    shift_linear,
    twist,
    type_balanced,
    valuation,
)
from .nullity import (
    LinearizedPoly,
    NullityProfile,
    QuadFunc,
    matrix_kernel_nullity,
    nullity_at,
    nullity_profile,
    radical_poly,
    splitting_exponent,
)
from .quadform import (
    QuadFormDiag,
    brute_force_sum,
    brute_force_sum_shifted,
    diagonalize,
    gram_matrix,
    legendre,
    smallest_nonsquare,
    type_direct,
)
from .tabulate import (
    DiffReport,
    TableRow,
    diff_reference,
    enumerate_functions,
    generate_table,
    reference_path,
)

__version__ = "0.1.0"

__all__ = [
    "CyclotomicInt",
    "DiffReport",
    "EvalPlan",
    "ExpSumValue",
    "FieldCtx",
    "FieldElem",
    "LinearizedPoly",
    "NullityProfile",
    "Poly",
    "QuadFormDiag",
    "QuadFunc",
    "ShiftedSum",
    "TableRow",
    "VerifyReport",
    "brute_force_sum",
    "brute_force_sum_shifted",
    "build_field_ctx",
    "cyc_from_trace_counts",
    "diagonalize",
    "diff_reference",
    "embed_element",
    "embedding_roots",
    "enumerate_functions",
    "evaluate",
    "expsum_to_cyclotomic",
    "gauss_cyclotomic",
    "gcd_plus_minus",
    "gcd_plus_plus",
    "generate_table",
    "gram_matrix",
    "legendre",
    "lift_odd_prime",
    "lift_p",
    "lift_p_value",
    "lift_two",
    "linearized_gcd_deg",
    "matrix_kernel_nullity",
    "monomial_eval",
    "multiplicative_order",
    "nullity_at",
    "nullity_profile",
    "plan",
    "radical_poly",
    "reference_path",
    "shift_linear",
    "smallest_nonsquare",
    "splitting_exponent",
    "twist",
    "type_balanced",
    "type_direct",
    "verify",
]
