"""Finite-model workbench for pseudo effect algebras and pseudo D-posets.

Everything is exhaustively verifiable on small carriers: bounded posets
and their morphisms, the interval and triple constructions, the two
partial differences, partial additions, catalogs of poset classes and the
labelled tables on each, and structure transfer along split coequalizers.

A pseudo D-poset on P is an algebra over P: two isotone maps from the
interval poset to P with a unit law and two squares
(:func:`~pealab.pdp.difference_maps`), checked against ``check_pdp`` by
``tests/test_pdp.py::TestAlgebraLaws``.
"""

from .catalog import (
    CatalogEntry,
    build_catalog,
    catalog_pdps,
    enumerate_bounded_posets,
    enumerate_pea_structures,
    enumerate_posets,
)
from .errors import (
    FormatError,
    InvalidStructure,
    LimitExceeded,
    PealabError,
    TransferError,
)
from .functors import (
    alpha,
    beta,
    check_square,
    interval_map,
    interval_poset,
    triple_elements,
    triple_map,
    triple_poset,
    zero_embedding,
)
from .pdp import (
    PDPMorphism,
    PseudoDPoset,
    check_pdp,
    check_pdp_morphism,
    difference_maps,
    enumerate_pdp_morphisms,
    equalizer_pdp,
    is_dposet,
    product_pdp,
    subalgebra_generated,
)
from .pea import (
    PseudoEffectAlgebra,
    check_pea,
    check_pea_morphism,
    is_commutative,
    pdp_to_pea,
    pea_to_pdp,
)
from .plmaps import (
    BandViolation,
    PLMap,
    find_band_violation,
    pl_compose,
    pl_in_unit_interval,
    pl_map,
    pl_noncommutativity_witness,
    pl_sum,
)
from .posets import (
    BoundedPoset,
    Poset,
    PosetMorphism,
    SplitFork,
    check_morphism,
    check_order,
    coequalizer_bposets,
    coequalizer_posets,
    comparison_isomorphism,
    enumerate_morphisms,
    find_isomorphism,
    identity,
    is_coequalizer,
    is_split_fork,
    isomorphisms,
    product_bposets,
    validate_bounded_poset,
)
from .reports import Report, Violation
from .transfer import (
    HomSets,
    generate_split_forks,
    i_preserves_fork,
    split_fork_from_idempotent,
    split_fork_pool,
    transfer_structure,
    verify_coequalizer_psdpos,
)

__version__ = "0.1.0"
