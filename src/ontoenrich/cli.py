"""Command line front door.

Subcommands: ``enrich``, ``relatedness``, ``eval``.
Options can also come from a JSON config file (``--config``); explicit flags
win over config file values. ``-v`` logs per-term DEBUG detail on stderr and
changes no output file. Exit codes: 0 on success, otherwise one distinct
code per failing stage (see STAGE_EXIT_CODES).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .pipeline import (
    ConfigError,
    RunConfig,
    StageError,
    run_enrichment,
    run_eval,
    run_relatedness,
)
from .relatedness import DEFAULT_DISTANCE_CAP, DEFAULT_THRESHOLD, DistanceConfig, SelectionConfig

STAGE_EXIT_CODES = {
    "config": 2,
    "ontology": 3,
    "corpus": 4,
    "hits": 5,
    "relatedness": 6,
    "extraction": 7,
    "enrichment": 8,
    "evaluation": 9,
    "output": 10,
}

_PATH_KEYS = ("corpus", "ontology", "out_dir", "snapshot", "stopwords", "gazetteer", "patterns")
_CONFIG_KEYS = (*_PATH_KEYS, "threshold", "ngd_cap", "top_k")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file with option defaults")
    # Path flags stay strings until _run_config, which rejects an empty one.
    parser.add_argument("--corpus", help="corpus directory (one subdir per domain)")
    parser.add_argument("--ontology", help="ontology file to enrich")
    parser.add_argument("--snapshot",
                        help="hit-count snapshot file; omit to index the corpus itself")
    parser.add_argument("--stopwords", help="stoplist file (default: built in)")
    parser.add_argument("--gazetteer", help="entity gazetteer file")
    parser.add_argument("--patterns", help="pattern catalogue file (default: built in)")
    parser.add_argument("--threshold", type=float,
                        help=f"relatedness threshold (default {DEFAULT_THRESHOLD})")
    parser.add_argument("--ngd-cap", dest="ngd_cap", type=float,
                        help="distance substituted when a pair never co-occurs "
                             f"(default {DEFAULT_DISTANCE_CAP})")
    parser.add_argument("--top-k", dest="top_k", type=int,
                        help="keep at most k targets per missing term")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


def _merge_config(args: argparse.Namespace) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        import json  # only a run with a config file reads JSON

        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        merged.update(loaded)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _path(key: str, value) -> Path | None:
    """None stays absent; a non-empty string or Path is a path; anything else is an error."""
    if value is None:
        return None
    if isinstance(value, Path) or (isinstance(value, str) and value):
        return Path(value)
    raise ConfigError(f"{key} must be a non-empty path, got {value!r}")


def _run_config(args: argparse.Namespace) -> RunConfig:
    merged = _merge_config(args)
    for required in ("corpus", "ontology", "out_dir"):
        if merged.get(required) is None:
            raise ConfigError(f"--{required.replace('_', '-')} is required")
    paths = {key: _path(key, merged.get(key)) for key in _PATH_KEYS}
    if any(isinstance(merged.get(key), bool) for key in ("threshold", "ngd_cap", "top_k")):
        raise ConfigError("threshold, ngd_cap and top_k take numbers, not true or false")
    top_k = merged.get("top_k")
    if top_k is not None and not isinstance(top_k, int):
        raise ConfigError(f"top_k must be an integer, got {top_k!r}")
    try:
        threshold = float(merged.get("threshold", DEFAULT_THRESHOLD))
        cap = float(merged.get("ngd_cap", DEFAULT_DISTANCE_CAP))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    try:  # out of range: the message of the record that checks the value
        return RunConfig(**paths, selection=SelectionConfig(threshold, top_k),
                         distance=DistanceConfig(cap))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontoenrich",
        description="Enrich an ontology with terms mined from a text corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("enrich", "run the full enrichment pipeline"),
        ("relatedness", "compute and export the relatedness matrix only"),
    ]:
        _add_run_flags(sub.add_parser(name, help=help_text))

    evaluate = sub.add_parser("eval", help="compare system judgments against expert ones")
    evaluate.add_argument("--system", required=True)
    evaluate.add_argument("--expert", required=True)
    evaluate.add_argument("--out-dir", dest="out_dir", required=True)
    evaluate.add_argument("--ignore-relation", action="store_true",
                          help="match placements on term, target and sense only")
    for command in sub.choices.values():
        command.add_argument("-v", "--verbose", action="store_true",
                             help="log at DEBUG level (per-term detail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        if args.command == "enrich":
            out = run_enrichment(_run_config(args))
        elif args.command == "relatedness":
            out = run_relatedness(_run_config(args))
        else:
            out = run_eval(_path("system", args.system), _path("expert", args.expert),
                           _path("out_dir", args.out_dir), not args.ignore_relation)
    except ConfigError as exc:
        print(f"error [config] {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES["config"]
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return STAGE_EXIT_CODES.get(exc.stage, 1)
    print(f"outputs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
