"""Quotient-complex representations of periodic crystals.

The package turns a periodic structure into a small directed multigraph on
its unit-cell sites (edges carry integer lattice offsets), closes that graph
into ordered triangles, featurizes every simplex, and runs an attention
model over the simplices to predict scalar properties.  A separate module
verifies homology statements about vertex identification with exact
rational arithmetic.

The names below load on first access (PEP 562), so importing the package,
or ``qcnet.cli``, does not import numpy: ``qcnet --threads`` must set the
BLAS thread variables before numpy loads.
"""

import importlib

_MODULE_NAMES = {
    "complexes": (
        "MessagingPairs", "QuotientComplex", "Triangle", "build_complex",
        "complex_json", "edge_pairs", "triangle_image_points",
        "vertex_pairs"),
    "features": (
        "EDGE_DIM", "TRIANGLE_DIM", "VERTEX_DIM", "AtomFeatureTable",
        "FeatureSet", "MissingSpeciesError", "NonPositiveDistanceError",
        "edge_features", "raw_features", "save_feature_arrays",
        "triangle_features"),
    "homology": (
        "QuotientHomologyReport", "SimplicialComplex", "SubcomplexError",
        "betti_numbers", "inclusion_induced_rank", "matrix_rank",
        "pairwise_gluing", "star_gluing", "verify_quotient_homology"),
    "model": (
        "CheckpointMismatchError", "EmptyComplexError", "ModelConfig",
        "NonFiniteActivationError", "SimplexTransformer", "batch_loss",
        "forward", "load_checkpoint", "loss_and_gradients", "merge_batch",
        "predict", "save_checkpoint"),
    "periodic": (
        "LatticeTooSkewedError", "PeriodicEdge", "PeriodicGraph",
        "RadiusTooSmallError", "brute_force_neighbors", "neighbor_list",
        "plane_spacing_min"),
    "structures": (
        "CrystalStructure", "DatasetRecord", "DatasetLoadResult",
        "DegenerateLatticeError", "ParseError", "UnknownSpeciesError",
        "load_dataset", "parse_poscar", "parse_structure", "save_dataset",
        "structure_from_dict", "structure_to_dict", "write_structure"),
    "training": (
        "AdamW", "MetricsReport", "NonFiniteLossError", "TrainConfig",
        "TrainResult", "TooFewSamplesError", "evaluate", "finetune",
        "kfold_split", "metrics_report", "one_cycle_lr",
        "synthetic_overfit_dataset", "train"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_NAMES or name == "autodiff":
        # ``import qcnet`` used to load every submodule; keep them reachable.
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
