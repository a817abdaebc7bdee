"""Command-line front end.

Exit codes: 0 StrongestNonlocal, 1 NotStrongestNonlocal, 2 Inconclusive or
HypothesesViolated (or a resource-guard refusal), 3 invalid input/parameters
or a file that cannot be read or written, 4 an internal error (any other
exception; the traceback goes to stderr).

Each output file is overwritten in place and cut to length, never truncated
to zero first; `input_sha256` hashes the input file's bytes. Only `certify`
imports `hashlib`, so only it maps OpenSSL (about 3.5 MB of peak RSS).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path
from typing import Optional

from . import constructions
from .certifier import Verdict, certify, report_to_dict
from .graphs import build_graph, build_path_graph, component_counts, to_dot
from .oracle import ResourceGuardError, build_systems, dump_system, nullspace
from .state_model import (
    Partition,
    StateSet,
    StateSetFormatError,
    parse_state_set,
    write_state_set,
)

EXIT_STRONGEST = 0
EXIT_NOT_STRONGEST = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4

_VERDICT_EXIT = {
    Verdict.STRONGEST_NONLOCAL: EXIT_STRONGEST,
    Verdict.NOT_STRONGEST_NONLOCAL: EXIT_NOT_STRONGEST,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    Verdict.HYPOTHESES_VIOLATED: EXIT_INCONCLUSIVE,
}


class CliError(Exception):
    """Invalid input or parameters; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (invalid parameters), not argparse's 2, which
    here means Inconclusive; subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", type=Path, help="state-set document to read")
    p.add_argument(
        "--construction",
        choices=sorted(constructions.CONSTRUCTIONS),
        help="generate the input set instead of reading a document",
    )
    p.add_argument("--d", type=int, help="dimension for the odd/even families")


def _add_force_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--force",
        action="store_true",
        help="override the resource guard on oracle system size",
    )


def _write(path: Path, text: str) -> None:
    """Every output file is written here. Opening an existing file with
    O_TRUNC waits on the filesystem, so the file is overwritten and its tail
    cut only when it was longer (a device or pipe is never truncated)."""
    data = text.encode("utf-8")
    without_trunc = lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)
    with open(path, "wb", opener=without_trunc) as f:
        longer = os.fstat(f.fileno()).st_size > len(data)
        f.write(data)
        if longer:
            f.truncate()


def _load_set(args) -> tuple[StateSet, Optional[bytes]]:
    """The input set, and the bytes read for --input (None for --construction)."""
    if (args.input is None) == (args.construction is None):
        raise CliError("exactly one of --input or --construction is required")
    if args.input is not None:
        if args.d is not None:
            raise CliError("--input takes no --d")
        try:
            data = args.input.read_bytes()
            # newlines translated as a text-mode read would
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except (OSError, UnicodeDecodeError) as e:
            raise CliError(f"cannot read {args.input}: {e}") from e
        try:
            return parse_state_set(text), data
        except StateSetFormatError as e:
            raise CliError(f"{args.input}: {e}") from e
    try:
        S = constructions.build(args.construction, args.d)
    except ValueError as e:
        raise CliError(str(e)) from e
    return S, None


def _partitions(selector: str) -> list[Partition]:
    if selector == "all":
        return list(Partition)
    return [Partition(selector)]


def cmd_generate(args) -> int:
    S, _ = _load_set(args)
    text = write_state_set(S)
    if args.output is not None:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    print(
        f"generated {args.construction}: dims={S.dims.as_tuple()} "
        f"states={S.n_states} tuples={len(S.tuples)}",
        file=sys.stderr,
    )
    return EXIT_STRONGEST


def cmd_certify(args) -> int:
    import hashlib  # loads OpenSSL; only certify hashes, so only it pays

    S, data = _load_set(args)
    data = write_state_set(S).encode("utf-8") if data is None else data
    report = certify(S, method=args.method, force=args.force)
    doc = report_to_dict(report)
    doc["input_sha256"] = hashlib.sha256(data).hexdigest()
    out = json.dumps(doc, indent=2) + "\n"
    if args.report is not None:
        _write(args.report, out)
    else:
        sys.stdout.write(out)
    print(f"verdict: {report.verdict.value}", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def cmd_graph(args) -> int:
    S, _ = _load_set(args)
    build = build_path_graph if args.path_subgraph else build_graph
    outputs = []
    counts = component_counts(S)
    for p in _partitions(args.partition):
        G = build(S, p)
        dot = to_dot(G)
        if args.output_dir is not None:
            args.output_dir.mkdir(parents=True, exist_ok=True)
            kind = "path" if args.path_subgraph else "full"
            path = args.output_dir / f"graph_{kind}_{p.value}.dot"
            _write(path, dot)
            outputs.append(path)
        else:
            sys.stdout.write(dot)
        print(
            f"cut {p.value}: {len(G.vertices)} vertices, {len(G.edges)} edges, "
            f"{'connected' if counts[p] <= 1 else 'disconnected'}",
            file=sys.stderr,
        )
    if outputs:
        print("wrote " + ", ".join(str(o) for o in outputs), file=sys.stderr)
    return EXIT_STRONGEST


def cmd_oracle(args) -> int:
    S, _ = _load_set(args)
    try:
        systems = build_systems(S, force=args.force)
    except ResourceGuardError as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    all_trivial = True
    for p in _partitions(args.partition):
        cs = systems[p]
        if args.dump_system is not None:
            path = Path(f"{args.dump_system}_{p.value}.txt")
            _write(path, dump_system(cs))
            print(f"wrote {path}", file=sys.stderr)
        ns = nullspace(cs)
        verdict = "trivial-only" if ns.trivial_only else "nontrivial-exists"
        print(
            f"cut {p.value}: dim={ns.dimension} {verdict} "
            f"identity={'yes' if ns.contains_identity else 'no'} mode=modular"
        )
        all_trivial = all_trivial and ns.trivial_only
    return EXIT_STRONGEST if all_trivial else EXIT_NOT_STRONGEST


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args returns a
    fresh Namespace on every call."""
    parser = _Parser(
        prog="ghznl",
        description="Certify strongest nonlocality of tripartite GHZ-like "
        "state sets via graph connectivity and an exact POVM nullspace oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a state-set document")
    g.add_argument(
        "--construction",
        required=True,
        choices=sorted(constructions.CONSTRUCTIONS),
    )
    g.add_argument("--d", type=int, help="dimension for the odd/even families")
    g.add_argument("--output", type=Path)
    g.set_defaults(func=cmd_generate, input=None)

    c = sub.add_parser("certify", help="produce a certification report")
    _add_input_args(c)
    c.add_argument("--method", choices=["graph", "oracle", "both"], default="both")
    _add_force_arg(c)
    c.add_argument("--report", type=Path, help="write the report here")
    c.set_defaults(func=cmd_certify)

    gr = sub.add_parser("graph", help="emit partition graphs as DOT")
    _add_input_args(gr)
    gr.add_argument("--partition", choices=["A", "B", "C", "all"], default="all")
    gr.add_argument(
        "--path-subgraph",
        action="store_true",
        help="emit the consecutive-edge subgraph instead of the full graph",
    )
    gr.add_argument("--output-dir", type=Path)
    gr.set_defaults(func=cmd_graph)

    o = sub.add_parser("oracle", help="report nullspace dimensions per cut")
    _add_input_args(o)
    o.add_argument("--partition", choices=["A", "B", "C", "all"], default="all")
    _add_force_arg(o)
    o.add_argument(
        "--dump-system",
        help="path prefix for sparse-triplet dumps of the constraint systems",
    )
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as e:
        # OSError: an output file or directory that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as e:
        # any other failure is a fault of ghznl, not a verdict: exit 1 would
        # read as NotStrongestNonlocal
        print(f"internal error: {e!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
