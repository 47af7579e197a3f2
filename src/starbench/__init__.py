"""starbench: a workbench for finite rings with involution.

Build rings from a small descriptor DSL, classify them against the
Rickart / Baer / p.q.-Baer taxonomy of *-rings, and machine-verify the
unit-adjunction construction that embeds a ring without unity into one
with unity while preserving right projections and central covers.
"""

from .algebra import ScalarAlgebra, build_scalar_algebra
from .audit import validate_star_ring
from .annihilators import (
    AnnihilatorSet,
    annihilator_family,
    principal_two_sided_ideal,
)
from .classifiers import (
    IMPLICATIONS,
    PROPERTY_CLASSIFIERS,
    PropertyReport,
    classify_matrix_ring,
    find_rp_not_central_cover,
    is_abelian,
    is_baer_star,
    is_pq_baer_star,
    is_proper_involution,
    is_quasi_baer_star,
    is_reduced,
    is_rickart_star,
    is_semi_proper,
    is_weakly_pq_baer_star,
    is_weakly_rickart_star,
)
from .config import DEFAULT_LIMITS, Limits
from .corpus import corpus_by_name, medium_corpus, small_corpus
from .descriptor import (
    Cyclic,
    Descriptor,
    Matrix,
    Product,
    SubringClosure,
    descriptor_hash,
    to_dsl,
    to_json,
)
from .dsl import parse_element, parse_ring_expr
from .errors import StarbenchError
from .goldens import GoldenStore
from .projections import (
    RingScan,
    central_cover,
    lp,
    rp,
)
from .rings import StarRing, build_ring
from .unitify import (
    EmbeddingReport,
    Quotient,
    build_R1,
    build_quotient,
    check_R1_lemmas,
    compute_kernel_N,
    describe_unitification,
    verify_unitification,
)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorSet",
    "Cyclic",
    "DEFAULT_LIMITS",
    "Descriptor",
    "EmbeddingReport",
    "GoldenStore",
    "IMPLICATIONS",
    "Limits",
    "Matrix",
    "PROPERTY_CLASSIFIERS",
    "Product",
    "PropertyReport",
    "Quotient",
    "RingScan",
    "ScalarAlgebra",
    "StarRing",
    "StarbenchError",
    "SubringClosure",
    "annihilator_family",
    "build_R1",
    "build_quotient",
    "build_ring",
    "build_scalar_algebra",
    "central_cover",
    "check_R1_lemmas",
    "classify_matrix_ring",
    "compute_kernel_N",
    "corpus_by_name",
    "describe_unitification",
    "descriptor_hash",
    "find_rp_not_central_cover",
    "is_abelian",
    "is_baer_star",
    "is_pq_baer_star",
    "is_proper_involution",
    "is_quasi_baer_star",
    "is_reduced",
    "is_rickart_star",
    "is_semi_proper",
    "is_weakly_pq_baer_star",
    "is_weakly_rickart_star",
    "lp",
    "medium_corpus",
    "parse_element",
    "parse_ring_expr",
    "principal_two_sided_ideal",
    "rp",
    "small_corpus",
    "to_dsl",
    "to_json",
    "validate_star_ring",
    "verify_unitification",
]
