"""Command-line front door.

Subcommands: ``construct``, ``verify``, ``neighborhood``, ``bench-mom``,
``distinguish``, ``scan``, ``gen``.  Distributions are read and written as
``{"atoms": [{"x": ..., "w": ...}, ...]}`` JSON; reports are JSON (or CSV for
the tabular commands).  Output files are byte-stable: keys are sorted and
floats use their shortest round-trip form.  ``construct`` and ``gen`` write
with ``distribution_json``, byte for byte ``json.dumps(indent=2, sort_keys=True)``.

Exit codes: 0 pass, 1 a checked condition failed, 2 usage or parse error,
3 degenerate or regime-refused input without ``--override-regime``.  Only
``main`` prints a refusal and picks its exit code: the subcommands raise it.

The default seed is 0, overridable through the ``ADVMEAN_SEED`` environment
variable or ``--seed``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from pathlib import Path

from . import corpus
from .adversary import REGIME_DELTA_MAX, REGIME_RATIO_MAX, construct_q, regime_flags
from .distribution import distribution_json, load_distribution
from .errors import DegenerateError, DomainError, RegimeError
from .harness import (
    TrialConfig,
    asymptotic_scan,
    bench_mom,
    lr_test_error,
    verify_neighborhood,
    verify_pair,
    verify_theorem,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _json_bytes(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"{out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(args, rows: list[dict], columns: list[str], document) -> None:
    """Label ``rows`` with the stem of ``--in`` and write them per ``--format``:
    as CSV ``columns``, or as ``document``, the JSON value that holds them."""
    label = Path(args.infile).stem
    for row in rows:
        row["distribution"] = label
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json_bytes(document), args.out)


def _load(path: str):
    try:
        return load_distribution(path)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError, RecursionError) as exc:  # also over-deep nesting
        raise DomainError(f"{path}: {exc}") from exc


def _regime(args) -> bool:
    """The one place the asserted regime is decided: whether conditions are
    enforced.  Outside the regime, refuse unless ``--override-regime`` is
    given, and then only warn."""
    if all(regime_flags(args.n, args.delta).values()):
        return True
    if not args.override_regime:
        raise RegimeError(
            f"(n={args.n!r}, delta={args.delta!r}) is outside the asserted regime "
            f"(delta <= {REGIME_DELTA_MAX}, log(1/delta)/n <= {REGIME_RATIO_MAX})"
        )
    print(
        "warning: outside the asserted regime; conditions are reported "
        "but not enforced",
        file=sys.stderr,
    )
    return False


def _trial_config(args) -> TrialConfig:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("ADVMEAN_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise DomainError(f"ADVMEAN_SEED must be an integer, got {raw!r}") from None
    return TrialConfig(n=args.n, delta=args.delta, trials=args.trials, seed=seed)


def _cmd_construct(args) -> int:
    p = _load(args.infile)
    _regime(args)
    res = construct_q(p, args.n, args.delta)
    _emit(distribution_json(res.q, res.meta), args.out)
    return EXIT_PASS


def _cmd_verify(args) -> int:
    """``verify`` and ``neighborhood``: report the subcommand's ``verifier``,
    or the explicit pair under ``verify --pair``."""
    p = _load(args.infile)
    enforced = _regime(args)
    if args.pair:
        report = verify_pair(p, _load(args.pair), args.n, args.delta)
        report["meta"]["pair_file"] = str(args.pair)
    else:
        report = args.verifier(p, args.n, args.delta)
    _emit(_json_bytes(report), args.out)
    if report["degenerate"]:
        raise DegenerateError(f"degenerate input ({report['meta']['reason']})")
    return EXIT_PASS if report["pass"] or not enforced else EXIT_FAIL


def _cmd_trials(args) -> int:
    """``bench-mom`` and ``distinguish``: run the subcommand's ``bench`` on
    ``--in`` (and ``--pair``); ``columns`` are its rate columns in CSV."""
    dists = [_load(path) for path in (args.infile, args.pair) if path]
    report = args.bench(*dists, _trial_config(args))
    columns = ["distribution", "n", "delta", "trials", "seed", *args.columns,
               "ci_halfwidth", "pass"]
    _emit_table(args, [report], columns, report)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _cmd_scan(args) -> int:
    p = _load(args.infile)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
    except ValueError as exc:
        raise DomainError(f"bad --n-list: {exc}") from exc
    if not n_list:
        raise DomainError("--n-list is empty")
    rows = asymptotic_scan(p, args.delta, n_list)
    _emit_table(args, rows, ["distribution", "n", "delta", "epsilon", "normalized"], rows)
    return EXIT_PASS


def _cmd_gen(args) -> int:
    _emit(distribution_json(corpus.build(args.name)), args.out)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="advmean",
        description=(
            "Construct indistinguishable partner distributions, verify their "
            "guarantees, and benchmark the median-of-means estimator."
        ),
    )
    parser.set_defaults(pair=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, trials=False, pair=None):
        # pair: None offers no --pair, else whether it is required
        sp.add_argument("--in", dest="infile", required=True, help="distribution JSON")
        sp.add_argument("--n", type=int, required=True, help="sample budget")
        sp.add_argument("--delta", type=float, required=True, help="failure probability")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if pair is not None:
            sp.add_argument("--pair", required=pair, help="second distribution JSON")
        if trials:
            sp.add_argument("--trials", type=int, default=20000)
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--format", choices=["json", "csv"], default="json")
        else:  # the Monte-Carlo subcommands never consult the regime
            sp.add_argument(
                "--override-regime",
                action="store_true",
                help="run outside the asserted regime with assertions downgraded",
            )

    sp = sub.add_parser("construct", help="write the partner distribution")
    add_common(sp)
    sp.set_defaults(fn=_cmd_construct)

    sp = sub.add_parser("verify", help="check the pair guarantees")
    add_common(sp, pair=False)
    sp.set_defaults(fn=_cmd_verify, verifier=verify_theorem)

    sp = sub.add_parser("neighborhood", help="check neighborhood membership")
    add_common(sp)
    sp.set_defaults(fn=_cmd_verify, verifier=verify_neighborhood)

    sp = sub.add_parser("bench-mom", help="median-of-means failure-rate benchmark")
    add_common(sp, trials=True)
    sp.set_defaults(fn=_cmd_trials, bench=bench_mom, columns=["failure_rate", "bound"])

    sp = sub.add_parser("distinguish", help="likelihood-ratio test simulation")
    add_common(sp, trials=True, pair=True)
    sp.set_defaults(fn=_cmd_trials, bench=lr_test_error, columns=["empirical_error"])

    sp = sub.add_parser("scan", help="tabulate the error bound across n")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--n-list", required=True, help="comma-separated sample counts")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(fn=_cmd_scan)

    sp = sub.add_parser("gen", help="emit a corpus distribution")
    sp.add_argument("--name", required=True, help=", ".join(corpus.names()))
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except RegimeError as exc:
        print(
            f"error: {exc}; rerun with --override-regime to proceed without "
            "assertions",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
