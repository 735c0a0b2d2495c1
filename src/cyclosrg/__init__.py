"""Strongly regular Cayley graphs on finite fields from cyclotomic classes.

The package builds exact finite field tables, partitions the multiplicative
group into cyclotomic classes, evaluates the character sums attached to a
union of classes both in closed form and by direct computation, and decides
strong regularity with a full parameter certificate.
"""

from .cyclotomy import ClassMap, CyclotomicInteger, classify
from .family_search import (
    NAMED_EXAMPLES,
    ExampleReport,
    FamilyCheck,
    NamedExample,
    SearchReport,
    pair_family_check,
    scan_pairs,
    scan_triples,
    triple_family_check,
    verify_named_example,
)
from .finite_field import SIZE_CAP, FieldTable, build_field
from .gauss_theory import (
    GaussSumNumeric,
    Index2Case,
    Index2Kind,
    QuadraticGaussValue,
    SemiprimitiveGauss,
    class_number,
    classify_index2,
    gauss_sum_numeric,
    index2_gauss_prime_power,
    index2_gauss_two_primes,
    mult_order,
    semiprimitive_gauss,
)
from .ntheory import euler_phi, factorize, is_prime
from .srg_engine import (
    PAIR_BUDGET,
    PredictedSpectrum,
    SrgCertificate,
    difference_count_oracle,
    predicted_spectrum_prime_power,
    predicted_spectrum_two_primes,
    srg_from_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ClassMap",
    "CyclotomicInteger",
    "ExampleReport",
    "FamilyCheck",
    "FieldTable",
    "GaussSumNumeric",
    "Index2Case",
    "Index2Kind",
    "NAMED_EXAMPLES",
    "NamedExample",
    "PAIR_BUDGET",
    "PredictedSpectrum",
    "QuadraticGaussValue",
    "SIZE_CAP",
    "SearchReport",
    "SemiprimitiveGauss",
    "SrgCertificate",
    "build_field",
    "class_number",
    "classify",
    "classify_index2",
    "difference_count_oracle",
    "euler_phi",
    "factorize",
    "gauss_sum_numeric",
    "index2_gauss_prime_power",
    "index2_gauss_two_primes",
    "is_prime",
    "mult_order",
    "pair_family_check",
    "predicted_spectrum_prime_power",
    "predicted_spectrum_two_primes",
    "scan_pairs",
    "scan_triples",
    "semiprimitive_gauss",
    "srg_from_spectrum",
    "triple_family_check",
    "verify_named_example",
]
