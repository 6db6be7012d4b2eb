"""ordinal: finite posets and lattices, valuation-rule audits, partition
entropy, and causal-chain interval quantification.

``import ordinal`` loads none of the submodules. Each exported name, and
each submodule in ``_EXPORTS`` (``ordinal.valuation``, say), is imported on
its first use (PEP 562) and then stored here, so later lookups are plain
attribute reads. The ``ordinal`` command follows the same rule: a run
imports only the modules its command uses, so ``poset gen`` never compiles
the valuation, spacetime or information code. Past ``cli`` and ``errors``
(and ``argparse``), each command group loads:

- ``poset``: ``serialize``, ``poset``, ``report`` and ``_record``, with
  ``json``, ``re`` and ``pathlib``; ``poset gen grid`` adds ``spacetime``;
- ``rules``: the same plus ``valuation``, with ``fractions``;
- ``info``: ``serialize``, ``information``, ``partitions`` and ``_record``;
- ``spacetime``: ``serialize``, ``spacetime`` and ``_record``, with
  ``fractions``.

No command loads ``dataclasses`` or ``inspect``: the value records derive
from ``_record.Record``.
"""
__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "errors": ("BoundExceeded", "CycleDetected", "GroundSetMismatch",
               "LatticeMismatch", "NegativeAtomValue", "NonPositiveBoost",
               "NoUniqueBound", "NotALattice", "NotQuantifiable",
               "NotSynchronized", "OrdinalError", "RedundantCover",
               "TooManyAtoms", "UnknownElement", "ZeroMeasureContext"),
    "information": ("AtomDistribution", "RelevanceReport",
                    "mutual_information", "partition_entropy"),
    "partitions": ("Partition", "all_partitions"),
    "poset": ("LatticeCertificate", "Poset", "boolean_lattice", "build_poset",
              "chain_poset", "divisor_lattice", "lattice_product", "pair_id",
              "parse_subset_id", "partition_lattice", "subset_id",
              "verify_consistency_relations"),
    "report": ("RuleReport", "RuleViolation"),
    "spacetime": ("Boost", "Event", "IntervalPair", "ObserverChain",
                  "boost_frame", "causal_grid", "causal_grid_poset",
                  "causal_leq", "check_synchronized", "coordinatize",
                  "interval_pair", "project"),
    "valuation": ("BiValuation", "Valuation", "bivaluation_from_valuation",
                  "check_bivaluation_sum_rule", "check_chain_rule",
                  "check_context_product_rule", "check_diamond_lemma",
                  "check_monotone", "check_product_rule_for_lattice_product",
                  "check_sum_rule", "derive_valuation_from_atoms"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is the import statement's
    # path, so -X importtime lists the module; importing binds it here
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
