"""Quotient-complex representations of periodic crystals.

The package turns a periodic structure into a small directed multigraph on
its unit-cell sites (edges carry integer lattice offsets), closes that graph
into ordered triangles, featurizes every simplex, and runs an attention
model over the simplices to predict scalar properties.  A separate module
verifies homology statements about vertex identification with exact
rational arithmetic.
"""

from .complexes import (MessagingPairs, QuotientComplex, Triangle,
                        build_complex, complex_json, edge_pairs,
                        triangle_image_points, vertex_pairs)
from .features import (EDGE_DIM, TRIANGLE_DIM, VERTEX_DIM, AtomFeatureTable,
                       FeatureSet, MissingSpeciesError,
                       NonPositiveDistanceError, edge_features, raw_features,
                       save_feature_arrays, triangle_features,
                       vertex_features)
from .homology import (QuotientHomologyReport, SimplicialComplex,
                       SubcomplexError, betti_numbers, boundary_matrix,
                       inclusion_induced_rank, matrix_rank, pairwise_gluing,
                       star_gluing, verify_quotient_homology)
from .model import (CheckpointMismatchError, EmptyComplexError, ModelConfig,
                    NonFiniteActivationError, SimplexTransformer, batch_loss,
                    forward, load_checkpoint, loss_and_gradients, merge_batch,
                    predict, save_checkpoint)
from .periodic import (PeriodicEdge, PeriodicGraph, RadiusTooSmallError,
                       brute_force_neighbors, min_image_distance,
                       neighbor_list, plane_spacing_min)
from .structures import (CrystalStructure, DatasetRecord, DatasetLoadResult,
                         DegenerateLatticeError, ParseError,
                         UnknownSpeciesError, load_dataset, parse_poscar,
                         parse_structure, save_dataset, structure_from_dict,
                         structure_to_dict, write_structure)
from .training import (AdamW, MetricsReport, NonFiniteLossError, TrainConfig,
                       TrainResult, TooFewSamplesError, evaluate, finetune,
                       kfold_split, metrics_report, one_cycle_lr,
                       synthetic_overfit_dataset, train)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "AtomFeatureTable", "CheckpointMismatchError",
    "CrystalStructure", "DatasetLoadResult", "DatasetRecord",
    "DegenerateLatticeError", "EDGE_DIM", "EmptyComplexError",
    "FeatureSet", "MessagingPairs", "MetricsReport", "MissingSpeciesError",
    "ModelConfig", "NonFiniteActivationError", "NonFiniteLossError",
    "NonPositiveDistanceError", "ParseError", "PeriodicEdge",
    "PeriodicGraph", "QuotientComplex", "QuotientHomologyReport",
    "RadiusTooSmallError", "SimplexTransformer", "SimplicialComplex",
    "SubcomplexError", "TRIANGLE_DIM", "TooFewSamplesError", "TrainConfig",
    "TrainResult", "Triangle", "UnknownSpeciesError", "VERTEX_DIM",
    "batch_loss", "betti_numbers", "boundary_matrix", "brute_force_neighbors",
    "build_complex", "complex_json", "edge_features", "edge_pairs",
    "evaluate", "finetune", "forward",
    "inclusion_induced_rank", "kfold_split", "load_checkpoint",
    "load_dataset", "loss_and_gradients", "matrix_rank", "merge_batch",
    "metrics_report", "min_image_distance", "neighbor_list", "one_cycle_lr",
    "pairwise_gluing", "parse_poscar", "parse_structure",
    "plane_spacing_min", "predict", "raw_features", "save_checkpoint",
    "save_dataset", "save_feature_arrays", "star_gluing",
    "structure_from_dict", "structure_to_dict", "synthetic_overfit_dataset",
    "train", "triangle_features", "triangle_image_points",
    "verify_quotient_homology", "vertex_features", "vertex_pairs",
    "write_structure",
]
