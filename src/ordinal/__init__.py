"""ordinal: finite posets and lattices, valuation-rule audits, partition
entropy, and causal-chain interval quantification."""

__version__ = "0.1.0"

from .errors import (BoundExceeded, CycleDetected, GroundSetMismatch,
                     LatticeMismatch, NegativeAtomValue, NonPositiveBoost,
                     NoUniqueBound, NotALattice, NotQuantifiable,
                     NotSynchronized, OrdinalError, RedundantCover,
                     TooManyAtoms, UnknownElement, ZeroMeasureContext)
from .information import (AtomDistribution, RelevanceReport,
                          mutual_information, partition_entropy)
from .partitions import Partition, all_partitions
from .poset import (LatticeCertificate, Poset, boolean_lattice, build_poset,
                    chain_poset, divisor_lattice, lattice_product, pair_id,
                    parse_subset_id, partition_lattice, subset_id,
                    verify_consistency_relations)
from .report import RuleReport, RuleViolation
from .spacetime import (Boost, Event, IntervalPair, ObserverChain, boost_frame,
                        causal_grid, causal_grid_poset, causal_leq,
                        check_synchronized, coordinatize, interval_pair,
                        project)
from .valuation import (BiValuation, Valuation, bivaluation_from_valuation,
                        check_bivaluation_sum_rule, check_chain_rule,
                        check_context_product_rule, check_diamond_lemma,
                        check_monotone, check_product_rule_for_lattice_product,
                        check_sum_rule, derive_valuation_from_atoms)

__all__ = [
    "AtomDistribution", "BiValuation", "Boost", "BoundExceeded",
    "CycleDetected", "Event", "GroundSetMismatch", "IntervalPair",
    "LatticeCertificate", "LatticeMismatch", "NegativeAtomValue",
    "NonPositiveBoost", "NoUniqueBound", "NotALattice", "NotQuantifiable",
    "NotSynchronized", "ObserverChain", "OrdinalError", "Partition", "Poset",
    "RedundantCover", "RelevanceReport", "RuleReport", "RuleViolation",
    "TooManyAtoms", "UnknownElement", "Valuation", "ZeroMeasureContext",
    "all_partitions", "bivaluation_from_valuation", "boolean_lattice",
    "boost_frame", "build_poset", "causal_grid", "causal_grid_poset",
    "causal_leq", "chain_poset", "check_bivaluation_sum_rule",
    "check_chain_rule", "check_context_product_rule", "check_diamond_lemma",
    "check_monotone", "check_product_rule_for_lattice_product",
    "check_sum_rule", "check_synchronized", "coordinatize",
    "derive_valuation_from_atoms", "divisor_lattice", "interval_pair",
    "lattice_product", "mutual_information", "pair_id", "parse_subset_id",
    "partition_entropy", "partition_lattice", "project", "subset_id",
    "verify_consistency_relations",
]
