"""Skew-Hadamard matrices from cyclotomic difference families.

Construction, exact certification, classification invariants, the affine
automorphism subgroup, and a top-k orthogonal sketch codec.
"""

from .groups import (GroupSpec, autocorrelation_profile, indicator_signs,
                     subset_from_indices, subset_size)
from .gf import (CyclotomicPartition, FieldConfig, FieldError, FieldTables,
                 additive_group, build_field, cyclotomic_partition,
                 negation_class_shift)
from .shdf import (BlockPair, GeneratorSearchError, ShdfCertificate,
                   blocks_from_indices, check_shdf, check_skew,
                   find_valid_generator)
from .hadamard import (Gate0Report, MatrixFormatError, PmMatrix,
                       assemble_bordered, build_bordered_from_blocks,
                       gate0_verify, gram_deviation, normalize_core_tournament,
                       parse_matrix_text, to_matrix_text, type1_matrix)
from .ranks import RankReport, rank_gfp
from .autgroup import AuditReport, subgroup_audit, verify_automorphism
from .sketch import (PacketFormatError, SketchConfig, SketchPacket,
                     byte_accounting, decode, encode, inverse_transform,
                     top_k_indices, transform)

__version__ = "0.1.0"

__all__ = [
    "GroupSpec", "autocorrelation_profile", "indicator_signs",
    "subset_from_indices", "subset_size",
    "CyclotomicPartition", "FieldConfig", "FieldError", "FieldTables",
    "additive_group", "build_field", "cyclotomic_partition",
    "negation_class_shift",
    "BlockPair", "GeneratorSearchError", "ShdfCertificate",
    "blocks_from_indices", "check_shdf", "check_skew", "find_valid_generator",
    "Gate0Report", "MatrixFormatError", "PmMatrix", "assemble_bordered",
    "build_bordered_from_blocks", "gate0_verify", "gram_deviation",
    "normalize_core_tournament", "parse_matrix_text", "to_matrix_text",
    "type1_matrix",
    "RankReport", "rank_gfp",
    "AuditReport", "subgroup_audit", "verify_automorphism",
    "PacketFormatError", "SketchConfig", "SketchPacket", "byte_accounting",
    "decode", "encode", "inverse_transform", "top_k_indices", "transform",
]
