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
import json
import os
import sys
import time
from typing import Dict, List, Optional

from .baselines import UNIVERSE_CAP, aggregate_up, stability_histogram, tda_l2, vanilla_gauss
from .dataio import (
    load_dataset,
    read_hierarchy_csv,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    write_hierarchy_csv,
    write_release_csv,
    write_trips_csv,
)
from .dpcore import PrivacyBudget, SensitivityModel
from .errors import ConfigError, DataError
from .evaluate import (
    LEAF_MECHANISMS,
    MECHANISMS,
    false_discovery_rate,
    max_abs_error_per_level,
    run_experiment,
    write_report,
)
from .hierarchy import HierTree, Key, build_tree
from .synth import SPARSITY_NAMES, SynthSpec, gen_flows, gen_partition
from .topdown import ReleaseConfig, release

__all__ = ["main"]

ORDER_FLAGS = {"asc": "ascending", "desc": "descending", "random": "random"}


def _parse_sparsity(value) -> float:
    if isinstance(value, str) and value in SPARSITY_NAMES:
        return SPARSITY_NAMES[value]
    try:
        return float(value)
    except (TypeError, ValueError):
        names = ", ".join(sorted(SPARSITY_NAMES))
        raise ConfigError(f"sparsity must be one of {names} or a float in (0, 1]") from None


def _configured(build, *args, **kwargs):
    """Call ``build``; a ValueError it raises is a configuration error (exit 4)."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _config_field(block: dict, name: str, convert, default=None):
    """``convert(block[name])``; a value it cannot convert is a configuration error."""
    value = block.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {value!r} for config field {name!r}") from None


def _float_list(values) -> List[float]:
    if not isinstance(values, list):
        raise TypeError("expected a list")
    return [float(v) for v in values]


def _budget_from_args(args: argparse.Namespace) -> PrivacyBudget:
    if args.rho is not None and args.epsilon is not None:
        raise ConfigError("give either --rho or --epsilon, not both")
    if args.rho is not None:
        return _configured(PrivacyBudget.from_rho, args.rho, args.delta)
    if args.epsilon is not None:
        if args.delta is None:
            raise ConfigError("--epsilon needs --delta")
        return _configured(PrivacyBudget.from_eps_delta, args.epsilon, args.delta)
    raise ConfigError("a privacy budget is required: --rho R or --epsilon E --delta D")


def _sens_from_args(args: argparse.Namespace) -> SensitivityModel:
    return _configured(
        SensitivityModel, privacy=args.privacy, m=args.m, distinct=not args.non_distinct
    )


def _meta_path(out: str, explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    stem = out[:-4] if out.endswith(".csv") else out
    return stem + ".meta.json"


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
        sparsity=_parse_sparsity(args.sparsity),
        exponent=args.exponent,
    )
    origin = gen_partition(spec, args.seed, "origin")
    dest = gen_partition(spec, args.seed, "destination")
    table = gen_flows(origin, dest, spec, args.seed)

    os.makedirs(args.out, exist_ok=True)
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
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {spec.kind} dataset to {args.out}: {len(table)} populated pairs "
        f"of {table.universe_size} ({table.n} trips)"
    )
    return 0


def cmd_release(args: argparse.Namespace) -> int:
    table = load_dataset(args.data)
    budget = _budget_from_args(args)
    sens = _sens_from_args(args)
    order = ORDER_FLAGS[args.order]

    if args.mechanism in LEAF_MECHANISMS:
        depth = 2 * table.origin.levels
        start = time.perf_counter()
        if args.mechanism == "vanilla-gauss":
            leaf = vanilla_gauss(table, budget, sens, args.seed, args.universe_cap)
        else:
            leaf = stability_histogram(table, budget, sens, args.seed)
        wall_ms = (time.perf_counter() - start) * 1000.0
        levels = {depth: leaf.values}
        meta = {
            "mechanism": args.mechanism,
            "mode": sens.privacy,
            "rho": budget.rho,
            "epsilon": budget.epsilon,
            "delta": budget.delta,
            "sensitivity": {"type": sens.privacy, "m": sens.m, "distinct": sens.distinct},
            "order": None,
            "seed": args.seed,
            "depth": depth,
            "tree": args.tree,
            "per_level": [{"depth": depth, "node_count": len(leaf.values), "wall_ms": wall_ms}],
        }
        released_nodes = len(leaf.values)
    else:
        tree = build_tree(table, args.tree)
        config = ReleaseConfig(budget=budget, sensitivity=sens, order=order, seed=args.seed)
        if args.mechanism == "tda-l2":
            rel = tda_l2(tree, config)
        elif args.mechanism == "tda-linf-random":
            config = ReleaseConfig(
                budget=budget, sensitivity=sens, order="random", seed=args.seed
            )
            rel = release(tree, config, mechanism="tda-linf-random")
        else:
            rel = release(tree, config)
        levels = {d: rel.tree.levels[d] for d in range(tree.depth + 1)}
        meta = rel.metadata()
        released_nodes = sum(len(v) for v in rel.tree.levels[1:])

    write_release_csv(levels, args.out)
    meta_path = _meta_path(args.out, args.meta)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(
        f"{args.mechanism}: released {released_nodes} values "
        f"(rho={budget.rho:.6g}) -> {args.out}, {meta_path}"
    )
    return 0


def _released_levels_from_csv(
    stored: Dict[int, Dict[Key, int]], truth: HierTree, meta: Optional[dict]
) -> List[Dict[Key, int]]:
    """Rebuild per-depth maps; leaf-only releases are aggregated upward."""
    if stored and max(stored) > truth.depth:
        raise DataError(
            f"release holds depth {max(stored)} but the dataset tree stops at {truth.depth}"
        )
    if meta is not None and "mechanism" in meta:
        leaf_only = meta["mechanism"] in LEAF_MECHANISMS
    else:
        leaf_only = 0 not in stored  # tree releases always store the root row
    if leaf_only:
        leaf_map = stored.get(truth.depth, {})
        return aggregate_up(leaf_map, truth.origin, truth.dest, truth.mode)
    return [stored.get(d, {}) for d in range(truth.depth + 1)]


def cmd_evaluate(args: argparse.Namespace) -> int:
    table = load_dataset(args.truth)
    stored = read_release_csv(args.release)

    meta: Optional[dict] = None
    meta_path = args.meta or _meta_path(args.release, None)
    if args.meta or os.path.exists(meta_path):
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read {meta_path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise DataError(f"{meta_path} is not valid JSON: {exc}") from None

    mode = (meta or {}).get("tree", args.tree)
    truth = build_tree(table, mode)
    released = _released_levels_from_csv(stored, truth, meta)

    errors = max_abs_error_per_level(truth, released)
    rows = []
    for depth in range(truth.depth + 1):
        rows.append(
            {
                "level": depth,
                "max_abs_error": errors[depth],
                "false_discovery_rate": false_discovery_rate(truth, released, depth),
                "released_nodes": sum(1 for v in released[depth].values() if v > 0),
            }
        )

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("level,max_abs_error,false_discovery_rate,released_nodes\n")
        for row in rows:
            fh.write(
                f"{row['level']},{row['max_abs_error']},"
                f"{row['false_discovery_rate']:.6f},{row['released_nodes']}\n"
            )
    json_path = args.out[:-4] + ".json" if args.out.endswith(".csv") else args.out + ".json"
    payload = {
        "schema": "od-eval/1",
        "truth": args.truth,
        "release": args.release,
        "mechanism": (meta or {}).get("mechanism"),
        "tree": mode,
        "levels": rows,
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    leaf_row = rows[-1]
    print(
        f"evaluated {args.release}: leaf max error {leaf_row['max_abs_error']}, "
        f"leaf FDR {leaf_row['false_discovery_rate']:.2f}% -> {args.out}, {json_path}"
    )
    return 0


def _table_from_sweep_config(cfg: dict):
    if "data" in cfg:
        return load_dataset(cfg["data"])
    if "synth" in cfg:
        s = _config_field(cfg, "synth", dict)
        seed = _config_field(s, "seed", int, 0)
        spec = SynthSpec(
            kind=s.get("kind", "binary"),
            levels=_config_field(s, "levels", int, 0),
            k_min=_config_field(s, "k_min", int, 2),
            k_max=_config_field(s, "k_max", int, 10),
            sparsity=_parse_sparsity(s.get("sparsity", 1.0)),
            exponent=_config_field(s, "exponent", float, 2.0),
        )
        origin = gen_partition(spec, seed, "origin")
        dest = gen_partition(spec, seed, "destination")
        return gen_flows(origin, dest, spec, seed)
    raise ConfigError("sweep config needs a 'data' path or a 'synth' block")


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {args.config}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.config} is not valid JSON: {exc}") from None

    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config} must hold a JSON object")
    table = _table_from_sweep_config(cfg)
    mechanisms = cfg.get("mechanisms", list(MECHANISMS))
    for mech in mechanisms:
        if mech not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {mech!r}; pick from {MECHANISMS}")
    order_flag = cfg.get("order", "asc")
    if order_flag not in ORDER_FLAGS:
        raise ConfigError(f"order must be one of {sorted(ORDER_FLAGS)}, got {order_flag!r}")
    sens = _configured(
        SensitivityModel,
        privacy=cfg.get("privacy", "bounded"),
        m=_config_field(cfg, "m", int, 1),
        distinct=bool(cfg.get("distinct", True)),
    )
    epsilons = _config_field(cfg, "epsilons", _float_list, [1.0])
    delta = _config_field(cfg, "delta", float, 1e-8)
    for eps in epsilons:
        _configured(PrivacyBudget.from_eps_delta, eps, delta)
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    reports = run_experiment(
        table,
        mechanisms=mechanisms,
        epsilons=epsilons,
        delta=delta,
        repeats=_config_field(cfg, "repeats", int, 10),
        seed=_config_field(cfg, "seed", int, 0),
        order=ORDER_FLAGS[order_flag],
        mode=cfg.get("tree", "destination"),
        sens=sens,
        workers=_config_field(cfg, "workers", int, 1),
        universe_cap=_config_field(cfg, "universe_cap", int, UNIVERSE_CAP),
        branching=cfg.get("branching"),
        beta=_config_field(cfg, "beta", float, 0.01),
    )
    for report in reports:
        eps_tag = "" if report.epsilon is None else f"_eps{report.epsilon:g}"
        base = os.path.join(out_dir, f"report_{report.mechanism}{eps_tag}")
        write_report(report, base + ".csv", base + ".json")
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
    p.add_argument("--kind", choices=["binary", "random"], default="binary")
    p.add_argument(
        "--sparsity",
        default="complete",
        help="complete, dense, sparse, or a float in (0, 1] (fraction of populated cells)",
    )
    p.add_argument("--exponent", type=float, default=2.0, help="Pareto shape for flow sizes")
    p.add_argument("--levels", type=int, default=0, help="hierarchy depth per side (0 = default)")
    p.add_argument("--k-min", type=int, default=2, help="min split arity (random kind)")
    p.add_argument("--k-max", type=int, default=10, help="max split arity (random kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("release", help="run one private mechanism on a dataset")
    p.add_argument("--data", required=True, help="dataset container from ingest/synth")
    p.add_argument("--mechanism", choices=list(MECHANISMS), required=True)
    p.add_argument("--rho", type=float, default=None, help="zCDP budget")
    p.add_argument("--epsilon", type=float, default=None, help="approximate-DP budget")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--order", choices=sorted(ORDER_FLAGS), default="asc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--privacy", choices=["bounded", "unbounded"], default="bounded")
    p.add_argument("--m", type=int, default=1, help="max trips contributed per user")
    p.add_argument(
        "--non-distinct",
        action="store_true",
        help="one user's trips may repeat the same O/D pair",
    )
    p.add_argument("--tree", choices=["destination", "origin"], default="destination")
    p.add_argument("--universe-cap", type=int, default=UNIVERSE_CAP)
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


if __name__ == "__main__":
    sys.exit(main())
