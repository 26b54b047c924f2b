"""Command line front door.

Subcommands:
  ingest    hierarchy CSVs + trip CSV -> validated dataset container
  synth     generate a synthetic benchmark dataset on disk
  release   run one mechanism on a dataset -> release CSV + metadata JSON
  evaluate  score a release CSV against the true dataset
  sweep     run a (mechanism x epsilon) grid from a JSON config

Exit codes: 0 success, 2 usage error, 3 bad data, 4 bad configuration,
1 anything unexpected.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import fields
from typing import List, Optional

from .dataio import (
    load_dataset,
    make_output_dir,
    open_output,
    read_hierarchy_csv,
    read_json,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    sidecar_path,
    write_hierarchy_csv,
    write_json,
    write_release_csv,
    write_trips_csv,
)
from .dpcore import PrivacyBudget, SensitivityModel
from .errors import ConfigError, DataError
from .evaluate import (
    MECHANISMS,
    level_scores,
    released_levels,
    run_experiment,
    run_release,
    write_report,
)
from .hierarchy import HierTree, build_tree, validate_consistency
from .synth import SPARSITY_NAMES, SynthSpec, gen_dataset
from .topdown import ReleaseConfig

__all__ = ["main"]

ORDER_FLAGS = {"asc": "ascending", "desc": "descending", "random": "random"}
# the evaluation report's CSV header and the keys of its JSON rows
EVAL_COLUMNS = ("level", "max_abs_error", "false_discovery_rate", "released_nodes")


def _integer(value) -> int:
    # JSON true/false are bools, which Python also counts as ints
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected a JSON integer")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a JSON number")
    return float(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a JSON boolean")
    return value


def _text(*choices: str):
    """A converter that accepts a string, one of ``choices`` if any are given."""

    def convert(value) -> str:
        if not isinstance(value, str):
            raise TypeError("expected a string")
        if choices and value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return convert


def _list_of(convert):
    def convert_all(values) -> list:
        if not isinstance(values, list):
            raise TypeError("expected a list")
        return [convert(v) for v in values]

    return convert_all


def _sparsity(value) -> float:
    """A number, or a sparsity name from ``SPARSITY_NAMES``."""
    if isinstance(value, str) and value not in SPARSITY_NAMES:
        raise ConfigError(f"sparsity must be one of {', '.join(SPARSITY_NAMES)} or a number")
    return SPARSITY_NAMES[value] if isinstance(value, str) else _number(value)


def _number_or_name(text: str):
    """``--sparsity`` as a number, or as text for ``_sparsity`` to check."""
    try:
        return float(text)
    except ValueError:
        return text


# Each key a sweep config block may hold, with the converter of its JSON value.
# A key left out takes the default of run_experiment, SensitivityModel or SynthSpec.
_SYNTH_CONFIG = {
    "kind": _text(),
    "levels": _integer,
    "k_min": _integer,
    "k_max": _integer,
    "sparsity": _sparsity,
    "exponent": _number,
    "seed": _integer,
}
_SWEEP_CONFIG = {
    "data": _text(),
    "synth": lambda block: _config_fields(block, _SYNTH_CONFIG, "synth block"),
    "out_dir": _text(),
    "privacy": _text(),
    "m": _integer,
    "distinct": _boolean,
    "mechanisms": _list_of(_text(*MECHANISMS)),
    "epsilons": _list_of(_number),
    "delta": _number,
    "repeats": _integer,
    "seed": _integer,
    "order": lambda value: ORDER_FLAGS[_text(*ORDER_FLAGS)(value)],
    "tree": _text("destination", "origin"),
    "beta": _number,
}


def _config_fields(block, table: dict, where: str) -> dict:
    """The JSON object ``block`` with each value converted by ``table``; a key
    outside ``table`` (a typo, say) or a value it rejects is a ConfigError."""
    if not isinstance(block, dict):
        raise ConfigError(f"the {where} must be a JSON object")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError(
            f"unknown {where} key {unknown[0]!r}; known keys: {', '.join(sorted(table))}"
        )
    converted = {}
    for name, value in block.items():
        try:
            converted[name] = table[name](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value {value!r} for config field {name!r}: {exc}") from None
    return converted


def _budget_from_args(args: argparse.Namespace) -> PrivacyBudget:
    if args.rho is not None and args.epsilon is not None:
        raise ConfigError("give either --rho or --epsilon, not both")
    if args.rho is not None:
        return PrivacyBudget.from_rho(args.rho, args.delta)
    if args.epsilon is not None:
        if args.delta is None:
            raise ConfigError("--epsilon needs --delta")
        return PrivacyBudget.from_eps_delta(args.epsilon, args.delta)
    raise ConfigError("a privacy budget is required: --rho R or --epsilon E --delta D")


# ---------------------------------------------------------------------------
# subcommands


def cmd_ingest(args: argparse.Namespace) -> int:
    origin = read_hierarchy_csv(args.hierarchy_o)
    dest = read_hierarchy_csv(args.hierarchy_d)
    table = read_trips_csv(args.trips, origin, dest)
    save_dataset(table, args.out)
    print(
        f"ingested {table.n} trips over {len(table)} populated pairs "
        f"({len(origin.leaves)} x {len(dest.leaves)} leaves, depth {origin.levels}) -> {args.out}"
    )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        kind=args.kind,
        levels=args.levels,
        k_min=args.k_min,
        k_max=args.k_max,
        sparsity=_sparsity(args.sparsity),
        exponent=args.exponent,
    )
    table = gen_dataset(spec, args.seed)
    origin, dest = table.origin, table.dest

    make_output_dir(args.out)
    write_hierarchy_csv(origin, os.path.join(args.out, "origin_hierarchy.csv"))
    write_hierarchy_csv(dest, os.path.join(args.out, "destination_hierarchy.csv"))
    write_trips_csv(table, os.path.join(args.out, "trips.csv"))
    manifest = {
        "format": "od-synth-manifest/1",
        "kind": spec.kind,
        "levels": spec.depth,
        "k_min": spec.k_min,
        "k_max": spec.k_max,
        "sparsity": spec.sparsity,
        "exponent": spec.exponent,
        "seed": args.seed,
        "origin_leaves": len(origin.leaves),
        "dest_leaves": len(dest.leaves),
        "universe": table.universe_size,
        "support": len(table),
        "total_trips": table.n,
    }
    write_json(manifest, os.path.join(args.out, "manifest.json"))
    print(
        f"wrote {spec.kind} dataset to {args.out}: {len(table)} populated pairs "
        f"of {table.universe_size} ({table.n} trips)"
    )
    return 0


def cmd_release(args: argparse.Namespace) -> int:
    table = load_dataset(args.data)
    config = ReleaseConfig(
        budget=_budget_from_args(args),
        sensitivity=SensitivityModel(args.privacy, args.m, distinct=not args.non_distinct),
        order=ORDER_FLAGS[args.order],
        seed=args.seed,
    )
    # leaf-only mechanisms never read the true tree, so it is not built for them
    tree = None if MECHANISMS[args.mechanism].leaf_only else build_tree(table, args.tree)
    rel = run_release(args.mechanism, table, args.tree, tree, config)

    write_release_csv(dict(enumerate(rel.tree.levels)), args.out)
    meta_path = args.meta or sidecar_path(args.out, ".meta.json")
    write_json(rel.metadata(), meta_path)
    budget = config.budget
    guarantee = (f"rho={budget.rho:.6g}" if rel.zcdp
                 else f"epsilon={budget.epsilon:.6g}, delta={budget.delta:.6g}")
    print(
        f"{args.mechanism}: released {sum(len(v) for v in rel.tree.levels[1:])} values "
        f"({guarantee}) -> {args.out}, {meta_path}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    table = load_dataset(args.truth)
    stored = read_release_csv(args.release)

    meta: dict = {}
    meta_path = args.meta or sidecar_path(args.release, ".meta.json")
    if args.meta or os.path.exists(meta_path):
        meta = read_json(meta_path)
        if not isinstance(meta, dict) or not isinstance(meta.get("mechanism", ""), str):
            raise DataError(f"{meta_path} is not a release sidecar object")

    mode = meta.get("tree", args.tree)
    truth = build_tree(table, mode)
    released = released_levels(stored, truth)
    if stored.get(0):
        # a tree release: a truncated or edited one would score as if whole
        bad = validate_consistency(HierTree(mode, truth.origin, truth.dest, released))
        if bad:
            raise DataError(
                f"{args.release} is not a consistent tree release: {len(bad)} violation(s) "
                f"of non-negativity or parent = sum of children, the first at "
                f"(origin, destination, depth) {bad[0]}"
            )
    scores = level_scores(truth, released)

    with open_output(args.out) as fh:
        fh.write(",".join(EVAL_COLUMNS) + "\n")
        for depth, (error, fdr, nodes) in enumerate(scores):
            fh.write(f"{depth},{error},{fdr:.6f},{nodes}\n")
    json_path = sidecar_path(args.out, ".json")
    write_json({
        "schema": "od-eval/1",
        "truth": args.truth,
        "release": args.release,
        "mechanism": meta.get("mechanism"),
        "tree": mode,
        "levels": [dict(zip(EVAL_COLUMNS, (depth, *row))) for depth, row in enumerate(scores)],
    }, json_path)
    error, fdr, _ = scores[-1]
    print(
        f"evaluated {args.release}: leaf max error {error}, "
        f"leaf FDR {fdr:.2f}% -> {args.out}, {json_path}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_fields(read_json(args.config), _SWEEP_CONFIG, "sweep config")
    if ("data" in cfg) == ("synth" in cfg):
        raise ConfigError("give the sweep a 'data' path or a 'synth' block, not both")
    # each cell's report is named by its mechanism and f"{epsilon:g}" below
    for key, label in (("mechanisms", str), ("epsilons", "{:g}".format)):
        if len(set(map(label, cfg.get(key, ())))) < len(cfg.get(key, ())):
            raise ConfigError(f"the sweep config's {key!r} has two entries that name one report")
    sens = SensitivityModel(**{f.name: cfg.pop(f.name) for f in fields(SensitivityModel)
                               if f.name in cfg})
    if "data" in cfg:
        table = load_dataset(cfg.pop("data"))
    else:
        synth = cfg.pop("synth")
        seed = synth.pop("seed", 0)
        table = gen_dataset(SynthSpec(**synth), seed)
    out_dir = cfg.pop("out_dir", ".")
    make_output_dir(out_dir)
    if "tree" in cfg:
        cfg["mode"] = cfg.pop("tree")

    for report in run_experiment(table, sens=sens, **cfg):
        base = os.path.join(out_dir, f"report_{report.mechanism}_eps{report.epsilon:g}")
        write_report(report, base + ".csv")
        leaf = report.levels[-1]
        print(
            f"{report.mechanism} eps={report.epsilon:g}: leaf err mean {leaf.err_mean:.1f}, "
            f"leaf FDR mean {leaf.fdr_mean:.2f}% -> {base}.csv"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inftda",
        description="Differentially private release of hierarchical origin/destination counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and pack raw CSVs into a dataset container")
    p.add_argument("--hierarchy-o", required=True, help="origin hierarchy CSV (one leaf per row)")
    p.add_argument("--hierarchy-d", required=True, help="destination hierarchy CSV")
    p.add_argument("--trips", required=True, help="trip CSV: origin,destination[,count]")
    p.add_argument("--out", required=True, help="output dataset container path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--kind", choices=["binary", "random"], default=SynthSpec.kind)
    p.add_argument(
        "--sparsity",
        type=_number_or_name,
        default=SynthSpec.sparsity,
        help="complete, dense, sparse, or a float in (0, 1] (fraction of populated cells)",
    )
    p.add_argument("--exponent", type=float, default=SynthSpec.exponent,
                   help="Pareto shape for flow sizes")
    p.add_argument("--levels", type=int, default=SynthSpec.levels,
                   help="hierarchy depth per side (0 = default)")
    p.add_argument("--k-min", type=int, default=SynthSpec.k_min,
                   help="min split arity (random kind)")
    p.add_argument("--k-max", type=int, default=SynthSpec.k_max,
                   help="max split arity (random kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("release", help="run one private mechanism on a dataset")
    p.add_argument("--data", required=True, help="dataset container from ingest/synth")
    p.add_argument("--mechanism", choices=list(MECHANISMS), required=True)
    p.add_argument("--rho", type=float, default=None, help="zCDP budget")
    p.add_argument("--epsilon", type=float, default=None, help="approximate-DP budget")
    p.add_argument("--delta", type=float, default=None)
    order_flag = {order: flag for flag, order in ORDER_FLAGS.items()}[ReleaseConfig.order]
    p.add_argument("--order", choices=sorted(ORDER_FLAGS), default=order_flag)
    p.add_argument("--seed", type=int, default=ReleaseConfig.seed)
    p.add_argument("--privacy", choices=["bounded", "unbounded"],
                   default=SensitivityModel.privacy)
    p.add_argument("--m", type=int, default=SensitivityModel.m,
                   help="max trips contributed per user")
    p.add_argument(
        "--non-distinct",
        action="store_true",
        help="one user's trips may repeat the same O/D pair",
    )
    p.add_argument("--tree", choices=["destination", "origin"], default="destination")
    p.add_argument("--out", required=True, help="release CSV path")
    p.add_argument("--meta", default=None, help="metadata JSON path (default: <out>.meta.json)")
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("evaluate", help="score a release against the true dataset")
    p.add_argument("--truth", required=True, help="dataset container the release was drawn from")
    p.add_argument("--release", required=True, help="release CSV")
    p.add_argument("--meta", default=None, help="release metadata JSON (default: next to CSV)")
    p.add_argument(
        "--tree",
        choices=["destination", "origin"],
        default="destination",
        help="tree mode when no metadata is available",
    )
    p.add_argument("--out", required=True, help="report CSV path (JSON lands next to it)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (mechanism x epsilon) benchmark grid")
    p.add_argument("--config", required=True, help="sweep JSON config")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command builds no reference cycle: its tables are freed by reference
    # counting alone, so a cyclic collection pass would only rescan them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI must not traceback at users
        print(f"unexpected error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
