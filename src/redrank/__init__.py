"""Exact-arithmetic toolkit for adjacency-rank invariants of graphs.

The package computes ranks of 0/1 adjacency matrices over the
rationals, recognizes and produces reduced graphs (no isolated or
duplicated vertices), enumerates small graphs up to isomorphism to
test the order-versus-rank conjecture, and certifies the spherical
two-distance-code bounds that power the general order estimates.
All arithmetic is exact; the library uses no floating point.
"""

from .bounds import (AngleParams, BoundReport, IntegralBracket,
                     LevDenominatorZero, TailCertificate, closed_form_sweep,
                     levenshtein_bound, rankin_bound, tail_ratio_certificate,
                     verify_code_lemma)
from .census import (ORDER_CAP, CensusReport, ConjectureSummary,
                     EnumerationCapError, ExtremalConstructionError,
                     InequalityReport, PropertySuiteReport, SuiteCheck,
                     census_counts, construct_extremal, enumerate_graphs,
                     lemma_suite, verify_conjecture, verify_m_inequalities)
from .exact import COS_REFERENCE, QSqrt2
from .formats import (FormatError, graph6_decode, graph6_encode,
                      parse_edge_list, parse_graph6, sniff_format)
from .graphs import (DuplicationWitness, Graph, conjectured_max_order,
                     duplication_witness, is_reduced,
                     min_removal_for_duplicates, min_removal_for_rank_drop,
                     neighborhood_symdiff, proven_max_order, rank,
                     reduce_graph)

__version__ = "0.1.0"

__all__ = [
    "AngleParams", "BoundReport", "COS_REFERENCE", "CensusReport",
    "ConjectureSummary", "DuplicationWitness", "EnumerationCapError",
    "ExtremalConstructionError", "FormatError", "Graph",
    "InequalityReport", "IntegralBracket", "LevDenominatorZero",
    "ORDER_CAP", "PropertySuiteReport", "QSqrt2", "SuiteCheck",
    "TailCertificate",
    "census_counts", "closed_form_sweep", "conjectured_max_order",
    "construct_extremal", "duplication_witness", "enumerate_graphs",
    "graph6_decode", "graph6_encode", "is_reduced", "lemma_suite",
    "levenshtein_bound", "min_removal_for_duplicates",
    "min_removal_for_rank_drop", "neighborhood_symdiff",
    "parse_edge_list", "parse_graph6", "proven_max_order", "rank",
    "rankin_bound", "reduce_graph", "sniff_format",
    "tail_ratio_certificate", "verify_code_lemma", "verify_conjecture",
    "verify_m_inequalities",
]
