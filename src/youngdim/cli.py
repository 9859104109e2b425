"""Command-line front end.

Subcommands: dim, seq, search, improve, oracle, verify, ratios.  Growth
and improvement commands emit JSON-lines run records; oracle table rows
and search results are single JSON objects; ratios are CSV.  No stdout
byte depends on timing.  Global flags --seed and --max-exact-n may
appear before or after the subcommand.

Every command writes its output lines through `records._emit`, to
stdout or to an `--out` file (UTF-8, one per line), as `emit_records`
does; only the ratio CSV files come from `records.ratios_csv`.  Each
`verify` finding is one JSON line, formatted by `_findings`.  A command
writes nothing until its output is computed, except `dim`, which writes
each record as it goes, so the lines before a bad partition still
appear.

Exit codes: 0 success (including conjecture-level warnings), 2 invalid
input (an `errors.InputError` or `OSError`), 3 internal failure, which
includes `verify theorem` finding a violation of a proven claim, and
141, with nothing on stderr, when the reader closes stdout early.

`main(argv)` may be called repeatedly in one process and returns the
exit code; usage errors and `--help` raise `SystemExit`, as argparse
does.  The parsers are built on the first call and reused by later
ones, which parse into a fresh namespace each time.  A one-shot shell
call builds them once either way and gains nothing.  Likewise `verify`
imports `transforms` on its first run, since no other command uses it:
a process that runs only the other commands never compiles it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .diagram import YoungDiagram
from .errors import EmptyDiagramError, InputError, InvalidDepth, UsageError
from .oracle import _check_size, max_dimension_diagrams, max_table
from .plancherel import branches, greedy_grow
from .records import (
    DEFAULT_MAX_EXACT_N,
    parse_partition,
    record_for,
    record_to_json,
    load_records,
    _emit,
    _load_records,
    ratios_csv,
)
from .search import search_from, sequence_improve


def _add_global_flags(parser, suppress: bool) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS if suppress else 0,
        help="base seed for randomized heuristics",
    )
    parser.add_argument(
        "--max-exact-n",
        type=int,
        dest="max_exact_n",
        default=argparse.SUPPRESS if suppress else DEFAULT_MAX_EXACT_N,
        help="largest size whose exact dimension is written into records",
    )


def _findings(kind, names, items):
    """One JSON line per finding: rows as lists, dimensions as decimal text."""
    for item in items:
        fields = {n: str(v) if isinstance(v, int) else v for n, v in zip(names, item)}
        yield json.dumps({"kind": kind, **fields})


def _parse_start(text) -> YoungDiagram:
    start = parse_partition(text) if text else YoungDiagram([1])
    if start.size == 0:
        raise EmptyDiagramError("start diagram must have at least one box")
    return start


def _cmd_dim(args) -> int:
    for text in args.partitions:
        diagram = parse_partition(text)
        if diagram.size == 0:
            raise EmptyDiagramError("cannot report the empty diagram")
        _emit([record_to_json(record_for(diagram, "oracle", args.max_exact_n))])
    return 0


def _cmd_seq(args) -> int:
    start = _parse_start(args.start)
    if args.variant is not None and args.shake is None:
        raise UsageError("--variant requires --shake")
    if args.shake is not None and args.restrict_core:
        raise UsageError("--shake cannot be combined with --restrict-core")
    if args.shake is None:
        seq = greedy_grow(start, args.n, args.restrict_core)
        source = "greedy"
    else:
        m = args.variant if args.variant is not None else 1
        seq = branches(start, m, args.shake, args.n, seed_base=args.seed)
        source = "shake" if m == 1 else "branches"
    lines = [record_to_json(record_for(d, source, args.max_exact_n)) for d in seq]
    _emit(lines, args.out)
    return 0


def _cmd_search_astar(args) -> int:
    if (args.n is None) == (args.depth is None):
        raise UsageError("give exactly one of --n and --depth")
    if args.depth is not None and args.depth < 1:
        raise InvalidDepth(f"depth must be at least 1, got {args.depth}")
    start = _parse_start(args.start)
    n_target = args.n if args.n is not None else start.size + args.depth
    found, result = search_from(start, n_target, uniform_cost=args.uniform_cost)
    record = record_for(found, "astar", args.max_exact_n)
    payload = {
        "rows": record.rows,
        "n": record.n,
        "dim": record.dim,
        "log_dim": record.log_dim,
        "c": record.c,
        "cost": result.cost,
        "nodes_expanded": result.nodes_expanded,
        "frontier_peak": result.frontier_peak,
        "mode": result.mode,
    }
    _emit([json.dumps(payload)])
    return 0


def _cmd_improve(args) -> int:
    old = sorted(_load_records(args.infile), key=lambda pair: pair[0].n)
    outcome = sequence_improve([diagram for _, diagram in old], args.depth)
    new_records = [record_for(d, "improve", args.max_exact_n) for d in outcome.sequence]
    _emit([record_to_json(rec) for rec in new_records], args.out)
    if args.ratios_out:
        ratios_csv([record for record, _ in old], new_records, args.ratios_out)
    print(
        f"improved sizes: {list(outcome.improved_sizes)};"
        f" skipped sizes: {list(outcome.skipped_sizes)}",
        file=sys.stderr,
    )
    return 0


def _entry_json(entry) -> str:
    return json.dumps(
        {
            "n": entry.n,
            "dim": str(entry.dim),
            "maximizers": [str(lam) for lam in entry.maximizers],
        }
    )


def _cmd_oracle_max(args) -> int:
    _emit([_entry_json(max_dimension_diagrams(args.n))])
    return 0


def _cmd_oracle_table(args) -> int:
    _emit([_entry_json(entry) for entry in max_table(args.max_n)], args.out)
    return 0


# a sweep's (rows, out_rows, dim_in, dim_out) finding
_CHANGE = ("input", "output", "dim_input", "dim_output")


def _cmd_verify_theorem(args) -> int:
    from .transforms import reflection_hooks_sweep, symmetrize_sweep

    # Both sizes are checked before either sweep starts.
    _check_size(args.max_n)
    _check_size(args.hooks_max_n, lo=0)
    sweep = symmetrize_sweep(args.max_n)
    hook_pairs, hook_failures = reflection_hooks_sweep(args.hooks_max_n)
    _emit(
        [
            f"checked={sweep.checked} strict={sweep.strict} equal={sweep.equal}"
            f" skipped={sweep.skipped} violations={len(sweep.violations)}"
            f" hook_pairs={hook_pairs} hook_failures={len(hook_failures)}",
            *_findings("dimension", _CHANGE, sweep.violations),
            *_findings("hooks", ("base", "upper", "lower"), hook_failures),
        ]
    )
    return 3 if sweep.violations or hook_failures else 0


def _cmd_verify_conjecture(args) -> int:
    from .transforms import balance_sweep

    sweep = balance_sweep(args.max_n)
    _emit(
        [
            f"checked={sweep.checked} increased={sweep.increased} equal={sweep.equal}"
            f" blocked={len(sweep.blocked)} decreases={len(sweep.decreased)}",
            *_findings("decrease", _CHANGE, sweep.decreased),
            *_findings("blocked", ("input", "stuck"), sweep.blocked),
        ]
    )
    if sweep.decreased:
        print(
            f"warning: {len(sweep.decreased)} dimension decreases recorded",
            file=sys.stderr,
        )
    return 0


def _cmd_ratios(args) -> int:
    ratios_csv(load_records(args.old), load_records(args.new), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="youngdim",
        description="Young diagram dimensions: exact values, growth heuristics, and search",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_dim = sub.add_parser(
        "dim", parents=[common], help="dimensions of given partitions"
    )
    p_dim.add_argument("partitions", nargs="+", metavar="ROWS", help='e.g. "4,2,2"')
    p_dim.set_defaults(func=_cmd_dim)

    p_seq = sub.add_parser(
        "seq", parents=[common], help="greedy growth sequence, optionally shaken"
    )
    p_seq.add_argument("--n", type=int, required=True, help="final size")
    p_seq.add_argument("--start", default="", metavar="ROWS", help="start diagram")
    p_seq.add_argument(
        "--restrict-core",
        action="store_true",
        dest="restrict_core",
        help="grow inside the core subgraph only",
    )
    p_seq.add_argument("--shake", type=int, help="shake the start with this k")
    p_seq.add_argument(
        "--variant", type=int, help="branch count m for seeded multi-branch shaking"
    )
    p_seq.add_argument("--out", help="write JSON-lines records here instead of stdout")
    p_seq.set_defaults(func=_cmd_seq)

    p_search = sub.add_parser("search", help="tree search for large dimensions")
    search_sub = p_search.add_subparsers(dest="search_command", required=True)
    p_astar = search_sub.add_parser(
        "astar", parents=[common], help="best-first search over the greedy path tree"
    )
    p_astar.add_argument("--n", type=int, help="absolute target size")
    p_astar.add_argument(
        "--depth", type=int, help="target size relative to the start diagram"
    )
    p_astar.add_argument("--start", default="", metavar="ROWS", help="start diagram")
    p_astar.add_argument(
        "--uniform-cost",
        action="store_true",
        dest="uniform_cost",
        help="exact mode: no heuristic, provably maximal at the target level",
    )
    p_astar.set_defaults(func=_cmd_search_astar)

    p_improve = sub.add_parser(
        "improve", parents=[common], help="deep-search improvement of a sequence"
    )
    p_improve.add_argument("--in", dest="infile", required=True, help="record file")
    p_improve.add_argument("--depth", type=int, default=3)
    p_improve.add_argument("--out", help="write improved records here")
    p_improve.add_argument(
        "--ratios-out", dest="ratios_out", help="write new/old dimension ratios CSV"
    )
    p_improve.set_defaults(func=_cmd_improve)

    p_oracle = sub.add_parser("oracle", help="exhaustive maxima")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_omax = oracle_sub.add_parser(
        "max", parents=[common], help="all maximum-dimension diagrams at one size"
    )
    p_omax.add_argument("--n", type=int, required=True)
    p_omax.set_defaults(func=_cmd_oracle_max)
    p_otable = oracle_sub.add_parser(
        "table", parents=[common], help="maximum table for sizes 1..N"
    )
    p_otable.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_otable.add_argument("--out", help="write JSON-lines table here")
    p_otable.set_defaults(func=_cmd_oracle_table)

    p_verify = sub.add_parser("verify", help="exhaustive checks of the transforms")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p_vt = verify_sub.add_parser(
        "theorem",
        parents=[common],
        help="reflection transform strictness and hook identities",
    )
    p_vt.add_argument("--max-n", dest="max_n", type=int, default=20)
    p_vt.add_argument(
        "--hooks-max-n",
        dest="hooks_max_n",
        type=int,
        default=10,
        help="largest symmetric base size for the hook identity sweep",
    )
    p_vt.set_defaults(func=_cmd_verify_theorem)
    p_vc = verify_sub.add_parser(
        "conjecture", parents=[common], help="balance-to-core dimension monitoring"
    )
    p_vc.add_argument("--max-n", dest="max_n", type=int, default=18)
    p_vc.set_defaults(func=_cmd_verify_conjecture)

    p_ratios = sub.add_parser(
        "ratios", parents=[common], help="dimension ratio CSV from two record files"
    )
    p_ratios.add_argument("--old", required=True)
    p_ratios.add_argument("--new", required=True)
    p_ratios.add_argument("--out", required=True)
    p_ratios.set_defaults(func=_cmd_ratios)

    return parser


@functools.cache
def _leading_parser() -> argparse.ArgumentParser:
    leading = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    _add_global_flags(leading, suppress=True)
    leading.add_argument("-h", "--help", action="store_true")
    return leading


def _reject_unknown_leading_flag(parser, argv) -> None:
    """Name an unknown flag given before the subcommand.

    argparse alone would read the flag's value as the subcommand name
    and report that instead of the flag.
    """
    try:
        _, rest = _leading_parser().parse_known_args(argv)
    except argparse.ArgumentError:
        return
    if rest and rest[0].startswith("-"):
        parser.error(f"unrecognized arguments: {rest[0]}")


def main(argv=None) -> int:
    parser = build_parser()
    _reject_unknown_leading_flag(parser, argv)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left: devnull takes the flush at exit; end as SIGPIPE would
        with contextlib.suppress(AttributeError, ValueError):  # no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 141
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
