"""Command line entry points.

Subcommands: build, featurize, train, finetune, eval, predict, homology.
Exit codes follow one taxonomy: 0 success, 1 malformed or unusable input
files, 2 configuration or compatibility problems (bad flags, bad config
keys, checkpoint mismatches), 3 data problems (missing datasets, species
without feature vectors, too few samples), 4 numerical failures.

The training seed resolves as: --seed flag, else the QCNET_SEED environment
variable, else the config file, else 0.  --threads pins the BLAS/OpenMP
thread count before numpy is first imported, which is why the heavy modules
are imported inside the command functions.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcnet",
        description="Quotient-complex crystal graphs, attention-based "
                    "property models, and exact homology checks.")
    parser.add_argument("--threads", type=int, default=None,
                        help="pin BLAS/OpenMP thread count (set before "
                             "numerics load)")
    parser.add_argument("--version", action="version", version="qcnet 0.1.0")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build",
                       help="parse a structure and write its quotient complex")
    p.add_argument("structure", help="structure file (JSON or POSCAR)")
    p.add_argument("-o", "--out", required=True,
                   help="output complex JSON path")
    p.add_argument("--format", choices=("auto", "json", "poscar"),
                   default="auto", help="structure file format")
    p.add_argument("--k", type=int, default=12,
                   help="neighbors per vertex (default 12)")
    p.add_argument("--radius", type=float, default=None,
                   help="optional cutoff radius in angstroms; errors if it "
                        "yields fewer than k neighbors")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("featurize",
                       help="write raw simplex feature arrays for a structure")
    p.add_argument("structure", help="structure file (JSON or POSCAR)")
    p.add_argument("-o", "--out-prefix", required=True,
                   help="output prefix for .json header and .bin arrays")
    p.add_argument("--format", choices=("auto", "json", "poscar"),
                   default="auto", help="structure file format")
    p.add_argument("--k", type=int, default=12,
                   help="neighbors per vertex (default 12)")
    p.add_argument("--atom-table", default="random:0",
                   help="atom feature table: a JSON path or random:SEED")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model from an INI config")
    p.add_argument("config", help="INI config file")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides QCNET_SEED and the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune",
                       help="continue training from a checkpoint")
    p.add_argument("config", help="INI config file")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint to start from")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides QCNET_SEED and the config seed")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval",
                       help="score a checkpoint against a labeled dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="JSONL dataset")
    p.add_argument("--atom-table", default=None,
                   help="JSON path or random:SEED (default: the table "
                        "recorded in the checkpoint sidecar)")
    p.add_argument("--k", type=int, default=None,
                   help="neighbors per vertex (default: sidecar value)")
    p.add_argument("-o", "--out", default=None,
                   help="also write the metrics report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict",
                       help="predict the target of one structure")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("structure", help="structure file (JSON or POSCAR)")
    p.add_argument("--format", choices=("auto", "json", "poscar"),
                   default="auto", help="structure file format")
    p.add_argument("--atom-table", default=None,
                   help="JSON path or random:SEED (default: sidecar value)")
    p.add_argument("--k", type=int, default=None,
                   help="neighbors per vertex (default: sidecar value)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("homology",
                       help="verify vertex-gluing homology statements")
    p.add_argument("complex",
                   help="path to a JSON list of maximal simplices")
    p.add_argument("partition",
                   help="path to a JSON list of vertex classes to identify")
    p.add_argument("-o", "--out", help="also write the report as JSON")
    p.add_argument("--construction", choices=("star", "pairwise"),
                   default="star",
                   help="gluing to use; 'pairwise' also reports its "
                        "disagreement with 'star'")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if a verdict is false or the "
                        "constructions disagree")
    p.set_defaults(func=cmd_homology)
    return parser


# -- shared helpers ---------------------------------------------------------

def _resolve_seed(flag_seed: int | None, config_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("QCNET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(EXIT_CONFIG,
                           f"QCNET_SEED must be an integer, got {env!r}")
    if config_seed is not None:
        return config_seed
    return 0


def _read_structure(path: str, fmt: str):
    from .structures import parse_structure
    if not os.path.exists(path):
        raise CliError(EXIT_INPUT, f"structure file not found: {path}")
    return parse_structure(path, fmt=fmt)


def _load_table(descriptor: str):
    from .features import AtomFeatureTable
    if descriptor.startswith("random:"):
        try:
            seed = int(descriptor.split(":", 1)[1])
        except ValueError:
            raise CliError(EXIT_CONFIG,
                           f"bad atom table descriptor {descriptor!r}")
        return AtomFeatureTable.random(seed)
    if not os.path.exists(descriptor):
        raise CliError(EXIT_DATA, f"atom table not found: {descriptor}")
    try:
        return AtomFeatureTable.from_json(descriptor)
    except ValueError as exc:
        raise CliError(EXIT_DATA, f"bad atom table {descriptor}: {exc}")


def _load_records(path: str):
    from .structures import load_dataset
    if not os.path.exists(path):
        raise CliError(EXIT_DATA, f"dataset not found: {path}")
    result = load_dataset(path)
    for lineno, message in result.errors:
        print(f"warning: {path} line {lineno} skipped: {message}",
              file=sys.stderr)
    if not result.records:
        raise CliError(EXIT_DATA, f"no usable records in {path}")
    return result.records


_CONFIG_SCHEMA = {
    "data": {"train", "val", "atom_table"},
    "train": {"epochs", "batch_size", "peak_lr", "weight_decay", "loss",
              "k_neighbors", "seed"},
    "model": {"hidden_dim", "head_hidden"},
    "output": {"dir"},
}


def _read_run_config(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise CliError(EXIT_CONFIG, f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise CliError(EXIT_CONFIG, f"bad config file {path}: {exc}")
    for section in cp.sections():
        if section not in _CONFIG_SCHEMA:
            raise CliError(EXIT_CONFIG,
                           f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise CliError(EXIT_CONFIG,
                               f"unknown config key '{key}' in [{section}]")
    if not cp.has_option("data", "train"):
        raise CliError(EXIT_CONFIG, "config needs [data] train = <jsonl>")
    if not cp.has_option("output", "dir"):
        raise CliError(EXIT_CONFIG, "config needs [output] dir = <path>")
    return cp


def _train_config_from_ini(cp: configparser.ConfigParser, seed: int):
    """The keys the file sets, each converted by the type of its
    ``TrainConfig`` default; ``TrainConfig`` supplies the rest."""
    from .training import TrainConfig
    kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    try:
        return TrainConfig(seed=seed, **{
            key: kinds[key](cp.get(section, key))
            for section in ("train", "model") if cp.has_section(section)
            for key in cp[section] if key != "seed"})
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"bad training config: {exc}")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _split_records(records):
    train = [r for r in records if r.split_tag in (None, "train")]
    val = [r for r in records if r.split_tag == "val"]
    return train, val


def _run_training(args, finetune_from: str | None) -> int:
    from .training import evaluate, finetune, train
    cp = _read_run_config(args.config)
    config_seed = (cp.getint("train", "seed")
                   if cp.has_option("train", "seed") else None)
    seed = _resolve_seed(args.seed, config_seed)
    out_dir = cp.get("output", "dir")
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "model.ckpt")
    config = _train_config_from_ini(cp, seed)
    records = _load_records(cp.get("data", "train"))
    train_records, val_records = _split_records(records)
    if cp.has_option("data", "val"):
        val_records = _load_records(cp.get("data", "val"))
    if not train_records:
        raise CliError(EXIT_DATA, "no training records after split")
    table_desc = cp.get("data", "atom_table", fallback="random:0")
    table = _load_table(table_desc)

    if finetune_from is None:
        result = train(config, train_records, val_records, table)
    else:
        if not os.path.exists(finetune_from):
            raise CliError(EXIT_CONFIG,
                           f"checkpoint not found: {finetune_from}")
        result = finetune(finetune_from, config, train_records, val_records,
                          table)

    # Both evaluations run before any file is written, so a model they
    # reject (non-finite weights) leaves no checkpoint behind.
    train_metrics = evaluate(result.model, train_records, table,
                             config.k_neighbors)
    val_metrics = (evaluate(result.model, val_records, table,
                            config.k_neighbors) if val_records else None)
    from .model import save_checkpoint
    save_checkpoint(result.model, checkpoint_path,
                    extra={"atom_table": table_desc,
                           "k_neighbors": config.k_neighbors,
                           "seed": seed})
    summary = {
        "seed": seed,
        "n_train": len(train_records),
        "n_val": len(val_records),
        "best_epoch": result.best_epoch,
        "final_train_loss": (result.history[-1]["train_loss"]
                             if result.history else None),
        "final_val_loss": (result.history[-1]["val_loss"]
                           if result.history else None),
        "train_metrics": train_metrics.to_dict(),
        "val_metrics": val_metrics.to_dict() if val_metrics else None,
    }
    from .structures import replace_files
    replace_files([
        (os.path.join(out_dir, "history.jsonl"),
         [(json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
          for entry in result.history]),
        (os.path.join(out_dir, "metrics.json"), [_json_bytes(summary)]),
    ])
    print(f"seed: {seed}")
    print(f"checkpoint: {checkpoint_path}")
    print(f"train mae: {train_metrics.mae:.6f}")
    if val_metrics is not None:
        print(f"val mae: {val_metrics.mae:.6f}")
    return EXIT_OK


# -- commands ---------------------------------------------------------------

def cmd_build(args) -> int:
    from .complexes import build_complex, complex_json
    from .periodic import neighbor_list
    from .structures import replace_files
    s = _read_structure(args.structure, args.format)
    g = neighbor_list(s, k=args.k, radius=args.radius)
    c = build_complex(g)
    replace_files([(args.out, [complex_json(c).encode("utf-8")])])
    print(f"vertices={c.n_vertices} edges={c.n_edges} "
          f"triangles={c.n_triangles}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    from .complexes import build_complex
    from .features import raw_features, save_feature_arrays
    from .periodic import neighbor_list
    s = _read_structure(args.structure, args.format)
    table = _load_table(args.atom_table)
    c = build_complex(neighbor_list(s, k=args.k))
    fs = raw_features(c, s.species, table)
    arrays = {"h0_raw": fs.h0_raw, "h1_raw": fs.h1_raw, "h2_raw": fs.h2_raw}
    save_feature_arrays(arrays, args.out_prefix)
    for name in sorted(arrays):
        print(f"{name}: shape {list(arrays[name].shape)}")
    return EXIT_OK


def cmd_train(args) -> int:
    return _run_training(args, finetune_from=None)


def cmd_finetune(args) -> int:
    return _run_training(args, finetune_from=args.checkpoint)


def _model_and_table(checkpoint: str, table_arg: str | None,
                     k_arg: int | None):
    from .model import load_checkpoint, read_sidecar
    if not os.path.exists(checkpoint):
        raise CliError(EXIT_CONFIG, f"checkpoint not found: {checkpoint}")
    model = load_checkpoint(checkpoint)
    try:
        extra = read_sidecar(checkpoint).get("extra", {})
    except (OSError, ValueError, AttributeError):
        extra = {}  # missing, unreadable, or not a JSON object
    if not isinstance(extra, dict):
        extra = {}

    def recorded(key, flag, default, valid, kind):
        if flag is not None:
            return flag
        if key not in extra:
            print(f"warning: {checkpoint}.json records no {key}; "
                  f"using {default}", file=sys.stderr)
            return default
        if not valid(extra[key]):
            raise CliError(EXIT_CONFIG, f"{checkpoint}.json: {key} must be "
                           f"{kind}, got {extra[key]!r:.40}")
        return extra[key]

    table_desc = recorded("atom_table", table_arg, "random:0",
                          lambda v: isinstance(v, str), "a string")
    k = recorded("k_neighbors", k_arg, 12,
                 lambda v: type(v) is int and v >= 1, "an integer >= 1")
    return model, _load_table(table_desc), k


def cmd_eval(args) -> int:
    from .training import evaluate
    model, table, k = _model_and_table(args.checkpoint, args.atom_table,
                                       args.k)
    records = _load_records(args.dataset)
    report = evaluate(model, records, table, k)
    payload = report.to_dict()
    if args.out:
        from .structures import replace_files
        replace_files([(args.out, [_json_bytes(payload)])])
    for key in ("n", "mae", "mse", "rmse", "mad", "cod", "pcc",
                "mad_mae_ratio", "status"):
        print(f"{key}: {payload[key]}")
    return EXIT_OK


def cmd_predict(args) -> int:
    from .complexes import build_complex
    from .features import raw_features
    from .model import forward
    from .periodic import neighbor_list
    model, table, k = _model_and_table(args.checkpoint, args.atom_table,
                                       args.k)
    s = _read_structure(args.structure, args.format)
    c = build_complex(neighbor_list(s, k=k))
    fs = raw_features(c, s.species, table)
    value = forward(model, c, fs)
    print(f"{value:.6f}")
    print(json.dumps({"id": s.id, "prediction": value}, sort_keys=True))
    return EXIT_OK


def cmd_homology(args) -> int:
    from .homology import SimplicialComplex, verify_quotient_homology
    for path in (args.complex, args.partition):
        if not os.path.exists(path):
            raise CliError(EXIT_INPUT, f"file not found: {path}")
    loaded = []
    for path in (args.complex, args.partition):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded.append(json.load(fh))
        except ValueError as exc:  # bad syntax, or an integer too long
            raise CliError(EXIT_INPUT, f"{path}: invalid JSON: {exc}")
    simplices, classes = loaded
    if not (isinstance(simplices, list) and simplices and
            all(isinstance(s, list) for s in simplices)):
        raise CliError(EXIT_INPUT,
                       "complex must be a nonempty JSON list of simplices")
    if not (isinstance(classes, list) and
            all(isinstance(c, list) for c in classes)):
        raise CliError(EXIT_INPUT,
                       "partition must be a JSON list of vertex lists")
    try:
        K = SimplicialComplex(simplices)
        report = verify_quotient_homology(K, classes,
                                          construction=args.construction)
    except ValueError as exc:
        raise CliError(EXIT_INPUT, str(exc))
    print(f"construction: {report.construction}")
    print(f"betti base: {report.betti_base}")
    print(f"betti glued: {report.betti_glued}")
    print(f"theta rank: {report.theta_rank}")
    print(f"H0 onto: {report.h0_onto}")
    print(f"H1 injective: {report.h1_injective}")
    print(f"H2 isomorphism: {report.h2_isomorphism}")
    print(f"H3 isomorphism: {report.h3_isomorphism}")
    disagreement = False
    out = report.to_dict()
    if args.construction == "pairwise":
        star = verify_quotient_homology(K, classes, construction="star")
        disagreement = star.betti_glued != report.betti_glued
        print(f"star betti glued: {star.betti_glued}")
        print(f"constructions agree: {not disagreement}")
        out["star_betti_glued"] = star.betti_glued
        out["constructions_agree"] = not disagreement
    if args.out:
        from .structures import replace_files
        replace_files([(args.out, [_json_bytes(out)])])
    # A false verdict always fails; a star/pairwise disagreement only
    # fails under --strict (the report shows it either way).
    if not report.all_verified:
        return EXIT_INPUT
    if args.strict and disagreement:
        return EXIT_INPUT
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # map domain errors onto the exit taxonomy
        code = _classify(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def _classify(exc: Exception) -> int | None:
    from .features import MissingSpeciesError, NonPositiveDistanceError
    from .homology import SubcomplexError
    from .model import CheckpointMismatchError, EmptyComplexError, \
        NonFiniteActivationError
    from .periodic import LatticeTooSkewedError, RadiusTooSmallError
    from .structures import DegenerateLatticeError, ParseError, \
        UnknownSpeciesError
    from .training import NonFiniteLossError, TooFewSamplesError
    if isinstance(exc, (ParseError, DegenerateLatticeError,
                        UnknownSpeciesError, RadiusTooSmallError,
                        LatticeTooSkewedError, NonPositiveDistanceError,
                        EmptyComplexError, SubcomplexError)):
        return EXIT_INPUT
    if isinstance(exc, CheckpointMismatchError):
        return EXIT_CONFIG
    if isinstance(exc, (MissingSpeciesError, TooFewSamplesError)):
        return EXIT_DATA
    if isinstance(exc, (NonFiniteLossError, NonFiniteActivationError)):
        return EXIT_NUMERIC
    if isinstance(exc, ValueError):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_INPUT
    return None


if __name__ == "__main__":
    sys.exit(main())
