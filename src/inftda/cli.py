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
from typing import Dict, List, Optional

from .baselines import UNIVERSE_CAP, aggregate_up
from .dataio import (
    load_dataset,
    make_output_dir,
    open_output,
    read_hierarchy_csv,
    read_release_csv,
    read_trips_csv,
    save_dataset,
    sidecar_path,
    write_hierarchy_csv,
    write_release_csv,
    write_trips_csv,
)
from .dpcore import PrivacyBudget, SensitivityModel
from .errors import ConfigError, DataError
from .evaluate import (
    MECHANISMS,
    false_discovery_rate,
    max_abs_error_per_level,
    run_experiment,
    run_release,
    write_report,
)
from .hierarchy import HierTree, Key, build_tree
from .synth import SPARSITY_NAMES, SynthSpec, gen_dataset, gen_flows, gen_partition
from .topdown import ReleaseConfig

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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for config field {name!r}: {exc}") from None


def _text(*choices: str):
    """A converter that accepts a string, one of ``choices`` if any are given."""

    def convert(value) -> str:
        if not isinstance(value, str):
            raise TypeError("expected a string")
        if choices and value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return value

    return convert


def _integer(value) -> int:
    # JSON true/false are bools, which Python also counts as ints
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected a JSON integer")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a JSON boolean")
    return value


def _list_of(convert):
    def convert_all(values) -> list:
        if not isinstance(values, list):
            raise TypeError("expected a list")
        return [convert(v) for v in values]

    return convert_all


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None


def _write_json(path: str, payload) -> None:
    with open_output(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
    _write_json(os.path.join(args.out, "manifest.json"), manifest)
    print(
        f"wrote {spec.kind} dataset to {args.out}: {len(table)} populated pairs "
        f"of {table.universe_size} ({table.n} trips)"
    )
    return 0


def cmd_release(args: argparse.Namespace) -> int:
    table = load_dataset(args.data)
    config = ReleaseConfig(
        budget=_budget_from_args(args),
        sensitivity=_sens_from_args(args),
        order=ORDER_FLAGS[args.order],
        seed=args.seed,
    )
    # leaf-only mechanisms never read the true tree, so it is not built for them
    tree = None if MECHANISMS[args.mechanism].leaf_only else build_tree(table, args.tree)
    rel = run_release(args.mechanism, table, args.tree, tree, config, args.universe_cap)

    write_release_csv(dict(enumerate(rel.tree.levels)), args.out)
    meta_path = args.meta or sidecar_path(args.out, ".meta.json")
    _write_json(meta_path, rel.metadata())
    print(
        f"{args.mechanism}: released {sum(len(v) for v in rel.tree.levels[1:])} values "
        f"(rho={config.budget.rho:.6g}) -> {args.out}, {meta_path}"
    )
    return 0


def _released_levels_from_csv(
    stored: Dict[int, Dict[Key, int]], truth: HierTree, meta: Optional[dict]
) -> List[Dict[Key, int]]:
    """Rebuild per-depth maps; leaf-only releases are aggregated upward."""
    if stored and not 0 <= min(stored) <= max(stored) <= truth.depth:
        raise DataError(
            f"release holds depths {min(stored)}..{max(stored)} "
            f"but the dataset tree spans 0..{truth.depth}"
        )
    if meta is not None and "mechanism" in meta:
        entry = MECHANISMS.get(meta["mechanism"])
        leaf_only = entry is not None and entry.leaf_only
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
    meta_path = args.meta or sidecar_path(args.release, ".meta.json")
    if args.meta or os.path.exists(meta_path):
        meta = _read_json(meta_path)
        if not isinstance(meta, dict) or not isinstance(meta.get("mechanism", ""), str):
            raise DataError(f"{meta_path} is not a release sidecar object")

    mode = (meta or {}).get("tree", args.tree)
    truth = build_tree(table, mode)
    released = _released_levels_from_csv(stored, truth, meta)

    errors = max_abs_error_per_level(truth, released)
    rows = [
        {
            "level": depth,
            "max_abs_error": errors[depth],
            "false_discovery_rate": false_discovery_rate(truth, released, depth),
            "released_nodes": sum(1 for v in released[depth].values() if v > 0),
        }
        for depth in range(truth.depth + 1)
    ]

    with open_output(args.out) as fh:
        fh.write("level,max_abs_error,false_discovery_rate,released_nodes\n")
        for row in rows:
            fh.write(
                f"{row['level']},{row['max_abs_error']},"
                f"{row['false_discovery_rate']:.6f},{row['released_nodes']}\n"
            )
    json_path = sidecar_path(args.out, ".json")
    _write_json(json_path, {
        "schema": "od-eval/1",
        "truth": args.truth,
        "release": args.release,
        "mechanism": (meta or {}).get("mechanism"),
        "tree": mode,
        "levels": rows,
    })
    leaf_row = rows[-1]
    print(
        f"evaluated {args.release}: leaf max error {leaf_row['max_abs_error']}, "
        f"leaf FDR {leaf_row['false_discovery_rate']:.2f}% -> {args.out}, {json_path}"
    )
    return 0


# every key cmd_sweep and _table_from_sweep_config read; any other is an error
_SWEEP_KEYS = frozenset({
    "data", "synth", "mechanisms", "order", "privacy", "m", "distinct", "epsilons",
    "delta", "out_dir", "repeats", "seed", "tree", "universe_cap", "branching", "beta",
})
_SYNTH_KEYS = frozenset({"kind", "levels", "k_min", "k_max", "sparsity", "exponent", "seed"})


def _check_keys(block: dict, known: frozenset, where: str) -> None:
    """A key of ``block`` outside ``known`` (a typo, say) is a configuration error."""
    unknown = sorted(set(block) - known)
    if unknown:
        raise ConfigError(
            f"unknown {where} key {unknown[0]!r}; known keys: {', '.join(sorted(known))}"
        )


def _table_from_sweep_config(cfg: dict):
    if "data" in cfg and "synth" in cfg:
        raise ConfigError("give the sweep either a 'data' path or a 'synth' block, not both")
    if "data" in cfg:
        return load_dataset(_config_field(cfg, "data", _text()))
    if "synth" in cfg:
        s = _config_field(cfg, "synth", dict)
        _check_keys(s, _SYNTH_KEYS, "synth")
        seed = _config_field(s, "seed", _integer, 0)
        spec = SynthSpec(
            kind=s.get("kind", "binary"),
            levels=_config_field(s, "levels", _integer, 0),
            k_min=_config_field(s, "k_min", _integer, 2),
            k_max=_config_field(s, "k_max", _integer, 10),
            sparsity=_parse_sparsity(s.get("sparsity", 1.0)),
            exponent=_config_field(s, "exponent", float, 2.0),
        )
        return gen_dataset(spec, seed)
    raise ConfigError("sweep config needs a 'data' path or a 'synth' block")


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _read_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config} must hold a JSON object")
    _check_keys(cfg, _SWEEP_KEYS, "sweep config")
    table = _table_from_sweep_config(cfg)
    mechanisms = _config_field(cfg, "mechanisms", _list_of(_text(*MECHANISMS)), list(MECHANISMS))
    order_flag = _config_field(cfg, "order", _text(*ORDER_FLAGS), "asc")
    sens = _configured(
        SensitivityModel,
        privacy=cfg.get("privacy", "bounded"),
        m=_config_field(cfg, "m", _integer, 1),
        distinct=_config_field(cfg, "distinct", _boolean, True),
    )
    epsilons = _config_field(cfg, "epsilons", _list_of(float), [1.0])
    delta = _config_field(cfg, "delta", float, 1e-8)
    for eps in epsilons:
        _configured(PrivacyBudget.from_eps_delta, eps, delta)
    out_dir = _config_field(cfg, "out_dir", _text(), ".")
    make_output_dir(out_dir)

    reports = run_experiment(
        table,
        mechanisms=mechanisms,
        epsilons=epsilons,
        delta=delta,
        repeats=_config_field(cfg, "repeats", _integer, 10),
        seed=_config_field(cfg, "seed", _integer, 0),
        order=ORDER_FLAGS[order_flag],
        mode=_config_field(cfg, "tree", _text("destination", "origin"), "destination"),
        sens=sens,
        universe_cap=_config_field(cfg, "universe_cap", _integer, UNIVERSE_CAP),
        branching=_config_field(cfg, "branching", lambda v: v if v is None else _integer(v)),
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
