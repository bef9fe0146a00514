"""Command-line interface.

Subcommands map one-to-one onto the library surface:

  digit     leading digit of an exact rational in one base
  deps      multiplicative-dependence report for a base tuple
  image     exact attainable/excluded classification for a base pair
  table     combined-base joint digit table for a dependent pair
  witness   search for x with a requested joint digit tuple
  coverage  torus-orbit sampling diagnostics

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
from itertools import chain, groupby

from . import __version__
from .digits import (
    DEFAULT_ENUMERATION_CAP,
    DEFAULT_SCAN_CAP,
    _format_decimal,
    _literal_digit,
    check_bases,
    parse_positive_rational,
)
from .dependence import pair_dependence, pairwise_report
from .errors import IndependentBasesError, ResourceLimitError
from .image import _chunks, _gaps, _joined, _spans, image_exact, joint_table
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


def _write_json(record) -> int:
    # never held whole; a refusal comes before the first chunk, leaving stdout empty
    sys.stdout.writelines(chain(record.iter_json_text(), "\n"))
    return 0


def _cmd_digit(args) -> int:
    # the digit needs no gcd, and a long p/q whose terms are close in length
    # needs only their first 40 digits unless it lies close to a digit edge
    d = _literal_digit(args.x, args.base)
    if args.output == "json":
        print(json.dumps({"base": args.base, "x": args.x.strip(), "digit": d}, sort_keys=True))
    else:
        print(d)
    return 0


def _cmd_deps(args) -> int:
    report = pairwise_report(_parse_bases(args.bases))
    if args.output == "json":
        return _write_json(report)
    # format every line first: a combined base past its cap leaves stdout empty
    lines = [
        f"{report.bases[i]} ~ {report.bases[j]}: dependent, "
        f"a={dep.a} e1={dep.e1} e2={dep.e2} combined_base={dep.combined_base}"
        for i, j, dep in report.dependent_pairs
    ]
    independent = "yes" if report.all_pairwise_independent else "no"
    print("\n".join([*lines, f"all pairwise independent: {independent}"]))
    return 0


def _cmd_image(args) -> int:
    bases = _parse_bases(args.bases)
    if len(bases) != 2:
        raise ValueError(f"image needs exactly two bases, got {len(bases)}")
    try:
        report = image_exact(bases[0], bases[1], allow_independent=args.allow_trivial)
    except IndependentBasesError:
        raise IndependentBasesError(
            f"bases {bases[0]} and {bases[1]} are multiplicatively independent: "
            "every digit pair is attainable; pass --allow-trivial to emit the "
            "trivial all-attainable report"
        ) from None
    if args.output == "json":
        return _write_json(report)
    att, exc = report.counts
    print(f"bases {bases[0]},{bases[1]}: {att} attainable, {exc} excluded")
    # one join per excluded interval, written in parts
    j2s = list(map(str, range(bases[1])))
    sys.stdout.writelines(_chunks((
        _joined(f"excluded: ({j1},", j2s[start:stop], ")\n", sep="")
        for j1, row in enumerate(report.rows, 1) for start, stop, c in row if c is None), sep=""))
    return 0


def _cmd_table(args) -> int:
    bases = _parse_bases(args.bases)
    if len(bases) != 2:
        raise ValueError(f"table needs exactly two bases, got {len(bases)}")
    dep = pair_dependence(bases[0], bases[1])
    if dep is None:
        raise IndependentBasesError(
            f"bases {bases[0]} and {bases[1]} are multiplicatively independent; "
            "no combined-base table exists"
        )
    table = joint_table(dep, cap=_env_cap("JOINTDIGITS_ENUM_CAP", DEFAULT_ENUMERATION_CAP))
    if args.output == "json":
        return _write_json(table)
    b1, b2 = dep.base1, dep.base2
    print(
        f"bases ({b1},{b2})  combined base {table.combined_base}"
        f"  [cells hold leading base-{table.combined_base} digits; . = empty]"
    )
    cells = list(table._walk(
        lambda runs: ",".join([str(s) if t == s + 1 else f"{s}-{t - 1}" for s, t, _ in runs])))
    # "." never outgrows a "j1=N" header, so the headers and the present
    # pairs' segments fix every width, and each row prints as it is built
    header = ["", *[f"j1={j1}" for j1 in range(1, b1)]]
    widths = [len(f"j2={b2 - 1}"), *map(len, header[1:])]
    for _, j1, segment in cells:
        widths[j1] = max(widths[j1], len(segment))
    print("  ".join(cell.ljust(w) for cell, w in zip(header, widths)).rstrip())
    dots = [".".ljust(w) for w in widths]  # a span of absent pairs is one slice
    for j2, spans in groupby(_spans(cells, b2, b1), lambda span: span[0]):
        row = chain.from_iterable([key[2].ljust(widths[lo])] if key else dots[lo:hi]
                                  for _, lo, hi, key in spans)
        print("  ".join([f"j2={j2}".ljust(widths[0]), *row]).rstrip())
    # one join per span of excluded pairs along a j1 row, written in parts
    gaps = _chunks((_joined(f"({j1},", map(str, range(lo, hi)), ")", sep=" ")
                    for j1, lo, hi in _gaps(table.image(), dep)), sep=" ")
    sys.stdout.writelines(chain(["excluded pairs: ", next(gaps, "none")], gaps, "\n"))
    return 0


def _cmd_witness(args) -> int:
    query = WitnessQuery(
        bases=_parse_bases(args.bases),
        target=_parse_ints(args.target, "target"),
        budget=args.budget,
        anchor=args.anchor,
        retry_other_anchors=not args.no_retry_anchors,
    )
    result = find_witness(query, budget_cap=_env_cap("JOINTDIGITS_SCAN_CAP", DEFAULT_SCAN_CAP))
    if args.output == "json":
        return _write_json(result)
    if result.outcome == "found":
        print(f"found x={_format_decimal(result.x)} (anchor {result.anchor_index}, k={result.k})")
    elif result.outcome == "not_attainable":
        i, j = result.obstruction
        print(
            f"not attainable: bases {query.bases[i]},{query.bases[j]} exclude "
            f"digit pair {result.certificate.pair} "
            f"(no power certificate in c range {result.certificate.scan_range})"
        )
    else:
        print(f"exhausted at k={result.k_reached}: {result.assumption_note}")
    return 0


def _cmd_coverage(args) -> int:
    report = orbit_sample(
        _parse_bases(args.bases),
        args.samples,
        sampler=args.sampler,
        ratio=parse_positive_rational(args.ratio),
        window=args.window,
        precision=args.precision,
        sample_cap=_env_cap("JOINTDIGITS_SCAN_CAP", DEFAULT_SCAN_CAP),
    )
    if args.output == "json":
        return _write_json(report)
    if args.output == "csv":
        csv.writer(sys.stdout).writerows(report.iter_csv_rows())
        return 0
    print(
        f"bases {report.bases}  sampler {report.sampler}  samples {report.samples}"
    )
    print(
        f"rectangles hit {report.rectangles_hit}/{report.rectangles_total}, "
        f"boundary-ambiguous {report.boundary_ambiguous}, "
        f"max |frequency - measure| = {report.max_deviation():.4f}"
    )
    return 0


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
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
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
