"""Exact-arithmetic toolkit for adjacency-rank invariants of graphs.

The package computes ranks of 0/1 adjacency matrices over the
rationals, recognizes and produces reduced graphs (no isolated or
duplicated vertices), enumerates small graphs up to isomorphism to
test the order-versus-rank conjecture, and certifies the spherical
two-distance-code bounds that power the general order estimates.
All core arithmetic is exact; floating point never decides a verdict.
"""

from .bounds import (CLOSED_FORM_REPORT_FLOOR, LEVENSHTEIN_CEILING,
                     AngleParams, BoundReport, IntegralBracket,
                     LevDenominatorZero, TailCertificate, closed_form_sweep,
                     levenshtein_bound, rankin_bound, reference_params,
                     tail_ratio_certificate, threshold_value,
                     verify_code_lemma)
from .census import (ORDER_CAP, CensusReport, ConjectureSummary,
                     EnumerationCapError, ExtremalConstructionError,
                     InequalityReport, PropertySuiteReport, SuiteCheck,
                     canonical_cert, canonical_form, census_counts,
                     construct_extremal, enumerate_graphs, lemma_suite,
                     verify_conjecture, verify_m_inequalities)
from .exact import (COS_REFERENCE, PI_HI, PI_LO, GammaRatio, QSqrt2,
                    decimal_str, gamma_half_ratio, sqrt_enclosure)
from .formats import (FormatError, graph6_decode, graph6_encode,
                      parse_edge_list, parse_graph6, sniff_format)
from .graphs import (DuplicationWitness, Graph, conjectured_max_order,
                     duplication_classes, duplication_witness, is_reduced,
                     min_removal_for_duplicates, min_removal_for_rank_drop,
                     neighborhood_symdiff, proven_max_order, rank,
                     rank_drops_hold, reduce_graph)
from .poly import adjacent_poly, gegenbauer, locate_interval

__version__ = "0.1.0"

__all__ = [
    "AngleParams", "BoundReport", "CLOSED_FORM_REPORT_FLOOR",
    "COS_REFERENCE", "CensusReport", "ConjectureSummary",
    "DuplicationWitness", "EnumerationCapError",
    "ExtremalConstructionError", "FormatError", "GammaRatio", "Graph",
    "InequalityReport", "IntegralBracket", "LEVENSHTEIN_CEILING",
    "LevDenominatorZero", "ORDER_CAP", "PI_HI", "PI_LO",
    "PropertySuiteReport", "QSqrt2", "SuiteCheck",
    "TailCertificate",
    "adjacent_poly", "canonical_cert", "canonical_form", "census_counts",
    "closed_form_sweep", "conjectured_max_order", "construct_extremal",
    "decimal_str", "duplication_classes", "duplication_witness",
    "enumerate_graphs", "gamma_half_ratio", "gegenbauer", "graph6_decode",
    "graph6_encode", "is_reduced",
    "lemma_suite", "levenshtein_bound", "locate_interval",
    "min_removal_for_duplicates", "min_removal_for_rank_drop",
    "neighborhood_symdiff", "parse_edge_list", "parse_graph6",
    "proven_max_order", "rank", "rank_drops_hold", "rankin_bound",
    "reduce_graph", "reference_params", "sniff_format", "sqrt_enclosure",
    "tail_ratio_certificate", "threshold_value", "verify_code_lemma",
    "verify_conjecture", "verify_m_inequalities",
]
