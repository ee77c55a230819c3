"""Command-line front end: coefficients, enumeration, and verification.

Subcommands map onto the library layers: ``coeffs`` drives the builder
dispatcher, ``enumerate``/``moments``/``spt`` expose the combinatorial
oracle, and ``verify``/``report`` run the identity check suite.  All
output is deterministic and sorted so runs can be diffed or golden-file
tested.  Exit codes: 0 success / all checks pass, 1 any check failed,
2 usage or internal error.

``COMMANDS`` defines each command once: help line, parser keywords,
arguments and handler.  A plain command line (a known command; exact table
flags, each given once with a value that does not start with ``-``; values
that pass their ``type`` and ``choices``; its one positional; no ``nargs``
argument, so never ``report``) is read from the table, building no parser.
argparse parses every other call, help and errors included: a call that
names a command builds only that command's parser, and the root parser,
with all six, is built only when no known command is named or arguments
are left over, so every help and error text is argparse's own.

``enumerate durfee`` walks, sorts and writes its listing one side S at a
time, in output order (the sides in text order, "10" before "2"), so csv
and json rows leave before the later sides are walked, and a reader that
closes stdout stops the walk at the side being written; text gathers every
side first, since its column widths depend on every cell.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import builders, harness, oracle
from .poly import AlgebraError
from .series import TruncationError

PAIR_CAP = 14
DURFEE_CAP = 12
DURFEE_HEADER = ("S", "top", "bottom", "mu", "nu", "r", "s", "ranks", "full_rank")


class UsageError(Exception):
    pass


def _parse_params(text: Optional[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad parameter assignment {piece!r}; expected name=value")
        k, v = (x.strip() for x in piece.split("=", 1))
        if not k:
            raise UsageError(f"empty parameter name in --params {text!r}")
        if k in out:
            raise UsageError(f"parameter {k!r} given twice")
        out[k] = v
    return out


def _emit(text: str, out_path: Optional[str]) -> None:
    _write((text, "" if out_path and text.endswith("\n") else "\n"), out_path)


def _check_out(out_path: str) -> None:
    """Reject an --out path that cannot take a file before any work is done;
    the file itself is opened only once the output is ready."""
    if os.path.isdir(out_path):
        raise UsageError(f"--out {out_path!r} is a directory")
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--out {out_path!r}: no directory {parent!r}")


def _write(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write the chunks to out_path, or to stdout as they come.  The file is
    opened only once the first chunk is ready, so work that fails before it
    leaves the file as it was."""
    if out_path:
        chunks = iter(chunks)
        first = next(chunks, "")
        with open(out_path, "w") as fh:
            fh.write(first)
            fh.writelines(chunks)
        return
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head``): send the rest, and the
        # flush at interpreter exit, to devnull instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _rows_out(header: Sequence[str], rows: List[Sequence[str]], fmt: str,
              out_path: Optional[str], footer: str = "") -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True), out_path)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), out_path)
    else:
        widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for row in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        if footer:
            lines.append(footer)
        _emit("\n".join(lines), out_path)


# ---------------------------------------------------------------------------
# coeffs


def cmd_coeffs(args) -> int:
    assignments = _parse_params(args.params)
    try:
        series = builders.build(args.builder, args.order, assignments)
    except (AlgebraError, TruncationError, KeyError, ValueError) as exc:
        raise UsageError(f"cannot build {args.builder!r}: {exc}")
    if args.format == "json":
        _emit(series.to_json(), args.out)
        return 0
    # a series that is zero in its window still gets its order row
    start = min(series.valuation, series.order)
    rows = [[str(n), str(series.coefficient(n))] for n in range(start, series.order + 1)]
    _rows_out(["exponent", "coefficient"], rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# enumerate


def _fmt_overpartition(op) -> str:
    parts, over = op
    if not parts:
        return "-"
    seen = set()
    bits = []
    for p in parts:
        if p in over and p not in seen:
            bits.append(f"{p}'")
            seen.add(p)
        else:
            bits.append(str(p))
    return "+".join(bits)


def _fmt_marked_row(row) -> str:
    return " ".join(f"{v}_{i}" for v, i in row) if row else "-"


def _fmt_ints(seq) -> str:
    return ",".join(map(str, seq)) or "-"


def _parse_durfee_filter(text: str) -> Dict[str, object]:
    # "r=1,s=2,ranks=-1,-1,-1": bare tokens extend the previous key's list
    out: Dict[str, List[str]] = {}
    key = None
    for tok in text.split(","):
        if "=" in tok:
            key, val = tok.split("=", 1)
            key = key.strip()
            if key in out:
                raise UsageError(f"filter key {key} given twice")
            out[key] = [val.strip()]
        elif key is not None:
            out[key].append(tok.strip())
        else:
            raise UsageError(f"bad filter token {tok!r}")
    parsed: Dict[str, object] = {}
    for k, vals in out.items():
        if k not in ("r", "s", "S", "full_rank", "ranks"):
            raise UsageError(f"unknown filter key {k!r}")
        if k != "ranks" and len(vals) != 1:
            raise UsageError(f"filter key {k} takes one value")
        try:
            ints = tuple(int(v) for v in vals)
        except ValueError:
            raise UsageError(f"filter key {k} takes integers, got {','.join(vals)!r}")
        parsed[k] = ints if k == "ranks" else ints[0]
    return parsed


def cmd_enumerate(args) -> int:
    n = args.n_max
    if n is None:
        raise UsageError("enumerate requires --n")
    if args.kind == "pairs":
        if args.k is not None or args.filter is not None:
            raise UsageError("--k and --filter apply to enumerate durfee only")
        if n > PAIR_CAP and not args.force:
            raise UsageError(
                f"n={n} exceeds the enumeration cap {PAIR_CAP}; pass --force to override")
        rows = []
        for lam, mu in oracle.overpartition_pairs(n):
            r, s = oracle.pair_stats(lam, mu)
            rows.append([_fmt_overpartition(lam), _fmt_overpartition(mu),
                         str(oracle.pair_rank(lam, mu)), str(r), str(s)])
        rows.sort()
        _rows_out(["first", "second", "rank", "r", "s"], rows, args.format, args.out,
                  footer=f"{len(rows)} pairs of weight {n}")
        return 0
    # durfee
    if args.k is None:
        raise UsageError("enumerate durfee requires --k")
    want = _parse_durfee_filter(args.filter) if args.filter else {}
    pruned = all(want.get(key) is not None for key in ("r", "s", "ranks"))
    if n > DURFEE_CAP and not args.force and not pruned:
        raise UsageError(
            f"n={n} exceeds the enumeration cap {DURFEE_CAP}; pass --force to override")
    _write(_durfee_lines(_durfee_table(args.k, n, want), args.format,
                         f"symbols of weight {n} (k={args.k})"), args.out)
    return 0


def _durfee_table(k: int, n: int, want: Dict[str, object]):
    """The ``enumerate durfee`` listing in its sorted order, one side S at a
    time, built from the row pairs with no symbol and no row sort.

    The rows sort first by the text of S ("10" before "2"), each (S, top,
    bottom) names one row pair and a pair's decorations are distinct, so the
    rows, sorted as texts, are the sides in text order, each side's pairs
    sorted by their (top, bottom) texts and each followed by its decorations
    sorted by their (mu, nu) texts.  A side is walked only when the side
    before it has been taken, and an S filter walks its side alone.  A pair's
    decorations depend only on S and the pair's weight, so each such group is
    formatted and sorted once; the row and rank texts are cached for the
    whole listing.

    Yields ``(pairs, groups)`` for each side: its sorted pairs as (S, top,
    bottom, ranks, full_rank) texts plus their group's key, and each of its
    groups' sorted (mu, nu, r, s) texts.
    """
    want_S, want_full, want_ranks = want.get("S"), want.get("full_rank"), want.get("ranks")

    @functools.cache
    def rank_cells(ranks):
        full = oracle.full_rank(ranks)
        return _fmt_ints(ranks), str(full), full

    # fixing the rank vector fixes the bottom row's subscript counts, so
    # every pair the enumerator yields has that rank vector
    fixed = None if want_ranks is None else rank_cells(want_ranks)
    row_cells = functools.cache(lambda row: (_fmt_marked_row(row), sum(v for v, _ in row)))
    walk = functools.partial(oracle._durfee_rows, k, n, want.get("r"), want.get("s"), want_ranks)
    sides = [S for S in sorted(range(1, n + 1), key=str) if want_S in (None, S)]
    if not sides:  # nothing to walk, but a bad k or rank vector is still an error
        next(walk(()), None)
    for S in sides:
        S_text = str(S)
        groups: Dict[Tuple[int, int], List[Tuple[str, str, str, str]]] = {}
        pairs = []
        for _, top, bottom, decorations in walk((S,)):
            ranks, full_text, full = fixed or rank_cells(oracle.rank_vector(k, top, bottom))
            if want_full is not None and full != want_full:
                continue
            top_text, top_weight = row_cells(top)
            bottom_text, bottom_weight = row_cells(bottom)
            group = (S, top_weight + bottom_weight)
            if group not in groups:
                groups[group] = sorted(
                    (_fmt_ints(mu), _fmt_ints(nu), str(r), str(s))
                    for (r, s), decorated in decorations.items() for mu, nu in decorated)
            pairs.append((S_text, top_text, bottom_text, ranks, full_text, group))
        pairs.sort()
        yield pairs, groups


def _durfee_lines(sides, fmt: str, footer: str) -> Iterator[str]:
    """The csv, text or json listing of ``_durfee_table``'s sides, in chunks.
    csv and json send each side on as soon as it is walked, the header or
    ``[`` with the first row; text needs every cell for its column widths, so
    it gathers every side first and ends with the row count and ``footer``.
    Each distinct cell is escaped, padded or encoded once in the listing, and
    each group's decoration cells are joined once."""
    if fmt == "json":  # json.dumps(rows, indent=2, sort_keys=True): S, bottom, full_rank, mu, nu, r, ranks, s, top
        cell = functools.cache(lambda i, text: f"    {json.dumps(DURFEE_HEADER[i])}: {json.dumps(text)},\n")

        def decorate(members):
            return [(cell(3, mu) + cell(4, nu) + cell(5, r), cell(6, s)) for mu, nu, r, s in members]

        def rows(S, top, bottom, ranks, full, group):
            head, mid = "  {\n" + cell(0, S) + cell(2, bottom) + cell(8, full), cell(7, ranks)
            tail = cell(1, top)[:-2] + "\n  }"
            return ",\n".join(head + a + mid + b + tail for a, b in decorations[group])
        batch, lead, between = [], "[\n", ",\n"
    else:
        if fmt == "csv":
            sep, end = ",", "\r\n"

            # no cell is empty ("-" stands for an empty row or sequence), so a
            # cell quoted on its own is quoted as it would be inside its row
            def cell(i, text):
                buf = io.StringIO()
                csv.writer(buf, lineterminator="").writerow((text,))
                return buf.getvalue()
        else:
            sep, end = "  ", "\n"
            sides = list(sides)
            pairs = [pair for side, _ in sides for pair in side]
            groups = {group: members for _, side in sides for group, members in side.items()}
            sides = [(pairs, groups)]
            footer = f"{sum(len(groups[pair[-1]]) for pair in pairs)} {footer}"
            pair_columns = list(zip(*pairs))
            decoration_columns = list(zip(*(d for members in groups.values() for d in members)))
            columns = pair_columns[:3] + decoration_columns + pair_columns[3:5] if pairs else [()] * 9
            widths = [max([len(h), *map(len, set(col))]) for h, col in zip(DURFEE_HEADER, columns)]

            def cell(i, text):
                return text.ljust(widths[i])
        cell = functools.cache(cell)

        def decorate(members):
            return [sep.join(cell(i, text) for i, text in enumerate(d, 3)) for d in members]

        def rows(S, top, bottom, ranks, full, group):
            head = cell(0, S) + sep + cell(1, top) + sep + cell(2, bottom) + sep
            tail = sep + cell(7, ranks) + sep + cell(8, full) + end
            return head + (tail + head).join(decorations[group]) + tail
        batch = [sep.join(cell(i, h) for i, h in enumerate(DURFEE_HEADER)) + end]
        lead = between = ""
    decorations = {}
    for pairs, groups in sides:
        decorations.update((group, decorate(members)) for group, members in groups.items())
        for pair in pairs:
            batch += lead, rows(*pair)
            lead = between
            if len(batch) >= 2048:
                yield "".join(batch)
                batch = []
        if pairs:  # the side leaves before the next one is walked
            yield "".join(batch)
            batch = []
    if fmt == "json":
        batch.append("\n]\n" if lead == between else "[]\n")
    elif fmt == "text":
        batch.append(footer + "\n")
    yield "".join(batch)


# ---------------------------------------------------------------------------
# moments / spt


def cmd_moments(args) -> int:
    series = builders.n2v(args.v, args.n_max)
    rows = [[str(n), str(series.coefficient(n))] for n in range(args.n_max + 1)]
    _rows_out(["n", f"moment_2v{args.v}"], rows, args.format, args.out)
    return 0


def cmd_spt(args) -> int:
    series = builders.spt_gf(args.n_max)
    totals = series.eval_param(dict.fromkeys(series.params, 1))
    rows = [[str(n), str(series.coefficient(n)), str(totals.coefficient(n).constant_value())]
            for n in range(args.n_max + 1)]
    _rows_out(["n", "refined", "total"], rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify / report


def _report_out(bodies: List[dict], args) -> int:
    """Write the report bodies in the chosen format; exit 0 only when every check passed."""
    report = harness.report_json if args.format == "json" else harness.report_text
    _emit(report(bodies), args.out)
    return 0 if all(b["status"] == "pass" for b in bodies) else 1


def cmd_verify(args) -> int:
    results = harness.run_suite(args.filter or "*", args.order)
    if not results:
        raise UsageError(f"no checks match filter {args.filter!r}")
    return _report_out([r.body() for r in results], args)


def _report_items(path: str, obj) -> List[dict]:
    """The check bodies of one report file, or a usage error if malformed."""
    items = obj.get("checks", []) if isinstance(obj, dict) else None
    if not isinstance(items, list):
        raise UsageError(f"report {path} is not an object with a list of checks")
    for item in items:
        if not (isinstance(item, dict) and isinstance(item.get("check"), str)
                and item.get("status") in ("pass", "fail", "error")):
            raise UsageError(f"report {path} has a check without a name or a pass/fail/error status")
    return items


def cmd_report(args) -> int:
    checks: Dict[str, dict] = {}
    for path in args.files:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read report {path}: {exc}")
        for item in _report_items(path, obj):
            checks[item["check"]] = item
    return _report_out([checks[k] for k in sorted(checks)], args)


# ---------------------------------------------------------------------------
# parser


def _io(formats=("json", "csv", "text"), default="text"):
    """The --format and --out arguments that every command ends with."""
    return [("--format", dict(choices=formats, default=default)), ("--out", dict(metavar="PATH", default=None))]


# name: (help, parser keywords, arguments as (*flags, keywords), handler)
COMMANDS = {
    "coeffs": ("expand a named series to a coefficient table",
               dict(epilog=builders.BUILDER_GRAMMAR, formatter_class=argparse.RawDescriptionHelpFormatter),
               [("builder", dict(help="builder identifier, e.g. n2v:v=1 or E2")),
                ("--order", dict(type=int, default=10)),
                ("--params", dict(default=None, metavar="k=v,...")), *_io()],
               cmd_coeffs),
    "enumerate": ("list combinatorial objects of one weight", {},
                  [("kind", dict(choices=("pairs", "durfee"))),
                   ("--n", "--n-max", dict(dest="n_max", type=int, default=None)),
                   ("--k", dict(type=int, default=None)),
                   ("--filter", dict(default=None, help='durfee only, e.g. "r=1,s=2,ranks=-1,-1,-1"')),
                   ("--force", dict(action="store_true", help="lift the enumeration size cap")), *_io()],
                  cmd_enumerate),
    "moments": ("symmetrized rank moment table", {},
                [("--v", dict(type=int, default=1)), ("--n-max", dict(type=int, default=12)), *_io()], cmd_moments),
    "spt": ("smallest-parts counts with refinement", {}, [("--n-max", dict(type=int, default=12)), *_io()], cmd_spt),
    "verify": ("run identity checks", {},
               [("--filter", dict(default=None, metavar="GLOB")), ("--order", dict(type=int, default=None)),
                *_io(("json", "text"))],
               cmd_verify),
    "report": ("merge JSON check reports", {},
               [("files", dict(nargs="+", metavar="REPORT.json")), *_io(("json", "text"), "json")], cmd_report),
}


def _with_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, _, arguments, handler = COMMANDS[name]
    for *flags, keywords in arguments:
        parser.add_argument(*flags, **keywords)
    parser.set_defaults(fn=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The root parser with every command's subparser."""
    p = argparse.ArgumentParser(
        prog="qpairs",
        description="Exact q-series coefficients, enumeration, and identity checks.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, keywords, _, _) in COMMANDS.items():
        _with_arguments(sub.add_parser(name, help=help_text, **keywords), name)
    return p


def _read(argv: List[str]) -> Optional[argparse.Namespace]:
    """The namespace the named command's parser gives for a plain argv (see the module
    docstring), read from its ``COMMANDS`` entry; None for any other argv."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, _, arguments, handler = COMMANDS[argv[0]]
    values, options, positionals = {"fn": handler}, {}, []
    for *flags, keywords in arguments:
        if "nargs" in keywords:
            return None
        if flags[0].startswith("-"):
            dest = keywords.get("dest", flags[0].lstrip("-").replace("-", "_"))
            values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
            options.update(dict.fromkeys(flags, (dest, keywords)))
        else:
            positionals.append((flags[0], keywords))
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, keywords = options[token]
            # an option given again is no longer a table flag, so it is declined below
            options = {flag: option for flag, option in options.items() if option[0] != dest}
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, "-")
        elif positionals:
            dest, keywords = positionals.pop(0)
        else:
            return None
        if token.startswith("-"):
            return None
        try:
            values[dest] = keywords.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and values[dest] not in keywords["choices"]:
            return None
    return None if positionals else argparse.Namespace(**values)


def _parse(argv: List[str]) -> argparse.Namespace:
    """Read a plain argv from the table, or parse with the named command's parser alone, as
    the root's subparser would; the root parses the root's own cases, and rejects arguments
    left over in its own words."""
    args = _read(argv)
    if args is not None:
        return args
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qpairs {argv[0]}", **COMMANDS[argv[0]][1])
        args, extra = _with_arguments(parser, argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if getattr(args, "v", 1) < 1:
            raise UsageError("--v must be at least 1")
        for flag in ("order", "n_max"):
            if (getattr(args, flag, None) or 0) < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative")
        if args.out:
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, AlgebraError, TruncationError, ValueError, OSError) as exc:  # OSError: --out unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
