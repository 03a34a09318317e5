"""Hilbert depth of squarefree monomial ideals, computed exactly.

The quotient S/I and the ideal I are described by alpha vectors (squarefree
monomial counts per degree); beta tables are their alternating binomial
transforms, and the Hilbert depth is the largest level whose beta table is
entrywise nonnegative.  The package bundles the Macaulay/Kruskal-Katona
machinery behind that criterion, exhaustive and randomized corpora of ideals,
and executable checkers for the depth-comparison results.
"""

from .combinatorics import (MacaulayRep, binom, binom_diff, kk_lower_bound,
                            kk_upper_bound, macaulay_rep)
from .corpus import (EnumerationPlan, SearchReport, VerifySummary,
                     alpha_census, compressed_complex_ideal, enumerate_ideals,
                     random_ideal, run_verification, search_counterexample)
from .depth import (HdepthReport, alpha_from_beta, beta_values, hdepth,
                    hdepth_report)
from .errors import CapacityError, DomainError, ParseError
from .ideals import (Ideal, alpha_of_ideal, alpha_of_quotient, alpha_vector,
                     monomial_str, parse_ideal)
from .theorems import (CHECK_ORDER, evaluate_profile, reproduce_bound_tables,
                       run_checks)

__version__ = "0.1.0"

__all__ = [
    "CHECK_ORDER", "CapacityError", "DomainError",
    "EnumerationPlan", "HdepthReport", "Ideal", "MacaulayRep",
    "ParseError", "SearchReport", "VerifySummary", "alpha_census",
    "alpha_from_beta", "alpha_of_ideal", "alpha_of_quotient", "alpha_vector",
    "beta_values", "binom", "binom_diff",
    "compressed_complex_ideal", "enumerate_ideals", "evaluate_profile",
    "hdepth", "hdepth_report", "kk_lower_bound", "kk_upper_bound",
    "macaulay_rep", "monomial_str", "parse_ideal", "random_ideal",
    "reproduce_bound_tables", "run_checks", "run_verification",
    "search_counterexample",
]
