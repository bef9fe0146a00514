"""Command-line interface.

Subcommands map one-to-one onto the library surface:

  digit     leading digit of an exact rational in one base
  deps      multiplicative-dependence report for a base tuple
  image     exact attainable/excluded classification for a base pair
  table     combined-base joint digit table for a dependent pair
  witness   search for x with a requested joint digit tuple
  coverage  torus-orbit sampling diagnostics

Each subcommand but digit builds one library report and writes it through
one writer: the report's iter_json_text() line, its iter_text() or (for
coverage) its CSV rows.  The formats live with the reports, not here.

Results go to stdout, diagnostics to stderr.  Exit status: 0 for a
completed query (a negative answer such as not_attainable is still a
completed query), 1 for domain errors or a closed stdout, 2 for usage
errors, 130 when interrupted.  Identical invocations produce
byte-identical stdout.

Resource caps default to the library defaults and can be overridden with
the environment variables JOINTDIGITS_ENUM_CAP (the combined base of table)
and JOINTDIGITS_SCAN_CAP (the coverage sample count and the witness budget).
A variable whose value is not an integer >= 1 is refused with an error that
names it.

main(argv) may be called repeatedly in one process: it builds its parser on
the first call and reuses it, and it reads the cap variables on every call.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import lru_cache
from itertools import chain

from . import __version__
from .digits import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SCAN_CAP,
    _literal_digit,
    check_bases,
    parse_positive_rational,
)
from .dependence import pair_dependence, pairwise_report
from .errors import IndependentBasesError, ResourceLimitError
from .image import image_exact, joint_table
from .torus import DEFAULT_PRECISION, SAMPLERS, orbit_sample
from .witness import DEFAULT_BUDGET, WitnessQuery, find_witness

__all__ = ["main", "build_parser"]


def _env_cap(name: str, default: int) -> int:
    """The cap set by the environment variable name, or the default."""
    text = os.environ.get(name, str(default))
    try:
        cap = int(text)
    except ValueError:
        cap = 0  # refused below, with the same message
    if cap < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {text!r}")
    return cap


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_bases(text: str) -> tuple[int, ...]:
    return check_bases(_parse_ints(text, "bases"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointdigits",
        description="Exact joint leading-digit computations across integer bases.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digit", help="leading digit of x in one base")
    p.add_argument("--base", type=int, required=True, help="base (integer >= 3)")
    p.add_argument(
        "--x", required=True, help="positive rational: integer or p/q literal"
    )
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("deps", help="pairwise multiplicative-dependence report")
    p.add_argument("--bases", required=True, help="comma-separated bases, n >= 2")
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("image", help="exact image classification for a base pair")
    p.add_argument("--bases", required=True, help="two comma-separated bases")
    p.add_argument(
        "--allow-trivial",
        action="store_true",
        help="report the trivial all-attainable image for independent bases",
    )
    p.add_argument("--output", choices=("text", "json"), default="json")

    p = sub.add_parser("table", help="combined-base joint digit table")
    p.add_argument("--bases", required=True, help="two comma-separated dependent bases")
    p.add_argument("--output", choices=("text", "json"), default="text")

    p = sub.add_parser("witness", help="find x with a requested joint digit tuple")
    p.add_argument("--bases", required=True, help="comma-separated bases, n >= 2")
    p.add_argument("--target", required=True, help="comma-separated digits, one per base")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--anchor", type=int, default=0, help="index of the pinned base")
    p.add_argument(
        "--no-retry-anchors",
        action="store_true",
        help="do not retry other anchors after the first exhausts its budget",
    )
    p.add_argument("--output", choices=("text", "json"), default="json")

    p = sub.add_parser("coverage", help="torus-orbit sampling diagnostics")
    p.add_argument("--bases", required=True, help="comma-separated bases")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sampler", choices=SAMPLERS, default="integer-scan")
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    p.add_argument(
        "--window", type=int, default=64, help="log-space window for low-discrepancy"
    )
    p.add_argument(
        "--ratio", default="3/2", help="step ratio for the geometric sampler (p/q)"
    )
    p.add_argument("--output", choices=("text", "json", "csv"), default="json")

    return parser


# parse_args never mutates its parser, so main builds one on its first call
# and keeps it; build_parser still gives each caller a parser of its own
_parser = lru_cache(maxsize=None)(build_parser)


def _write(record, output: str) -> None:
    """Write a report to stdout as its JSON line, its text or its CSV rows, in parts
    and never held whole: a refusal comes before the first part, leaving stdout empty."""
    if output == "csv":
        csv.writer(sys.stdout).writerows(record.iter_csv_rows())
    else:
        sys.stdout.writelines(
            chain(record.iter_json_text(), "\n") if output == "json" else record.iter_text())


def _cmd_digit(args) -> None:
    # the digit needs no gcd, and a long p/q whose terms are close in length
    # needs only their first 40 digits unless it lies close to a digit edge
    d = _literal_digit(args.x, args.base)
    if args.output == "json":
        print(json.dumps({"base": args.base, "x": args.x.strip(), "digit": d}, sort_keys=True))
    else:
        print(d)


def _cmd_deps(args):
    return pairwise_report(_parse_bases(args.bases))


def _parse_pair(args) -> tuple[int, int]:
    bases = _parse_bases(args.bases)
    if len(bases) != 2:
        raise ValueError(f"{args.command} needs exactly two bases, got {len(bases)}")
    return bases


def _cmd_image(args):
    b1, b2 = _parse_pair(args)
    try:
        return image_exact(b1, b2, allow_independent=args.allow_trivial)
    except IndependentBasesError:
        raise IndependentBasesError(
            f"bases {b1} and {b2} are multiplicatively independent: "
            "every digit pair is attainable; pass --allow-trivial to emit the "
            "trivial all-attainable report"
        ) from None


def _cmd_table(args):
    b1, b2 = _parse_pair(args)
    dep = pair_dependence(b1, b2)
    if dep is None:
        raise IndependentBasesError(f"bases {b1} and {b2} are multiplicatively independent; "
                                    "no combined-base table exists")
    return joint_table(dep, cap=_env_cap("JOINTDIGITS_ENUM_CAP", DEFAULT_ENUMERATION_CAP))


def _cmd_witness(args):
    query = WitnessQuery(bases=_parse_bases(args.bases), target=_parse_ints(args.target, "target"),
                         budget=args.budget, anchor=args.anchor,
                         retry_other_anchors=not args.no_retry_anchors)
    return find_witness(query, budget_cap=_env_cap("JOINTDIGITS_SCAN_CAP", DEFAULT_SCAN_CAP))


def _cmd_coverage(args):
    return orbit_sample(_parse_bases(args.bases), args.samples, sampler=args.sampler,
                        ratio=parse_positive_rational(args.ratio), window=args.window,
                        precision=args.precision,
                        sample_cap=_env_cap("JOINTDIGITS_SCAN_CAP", DEFAULT_SCAN_CAP))


_HANDLERS = {
    "digit": _cmd_digit,
    "deps": _cmd_deps,
    "image": _cmd_image,
    "table": _cmd_table,
    "witness": _cmd_witness,
    "coverage": _cmd_coverage,
}


def main(argv: list[str] | None = None) -> int:
    # --base and --x may run past the int<->str guard's 4300 digits, and the
    # digit JSON echoes the base: lift the guard for this call only, and give
    # the caller its limit back, on SystemExit too (a witness x needs no lift)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return _run(argv)
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        # each handler returns the report to write, or writes its own (digit)
        record = _HANDLERS[args.command](args)
        if record is not None:
            _write(record, args.output)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return 0
    except (ValueError, ResourceLimitError) as exc:
        # IndependentBasesError is a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the exit flush succeeds
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
