"""Command-line front end: coefficients, enumeration, and verification.

Subcommands map onto the library layers: ``coeffs`` drives the builder
dispatcher, ``enumerate``/``moments``/``spt`` expose the combinatorial
oracle, and ``verify``/``report`` run the identity check suite.  All
output is deterministic and sorted so runs can be diffed or golden-file
tested.  Exit codes: 0 success / all checks pass, 1 any check failed,
2 usage or internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import builders, harness, oracle
from .poly import AlgebraError
from .series import TruncationError

PAIR_CAP = 14
DURFEE_CAP = 12


class UsageError(Exception):
    pass


def _parse_params(text: Optional[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise UsageError(f"bad parameter assignment {piece!r}; expected name=value")
        k, v = piece.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


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
        _emit(json.dumps(series.to_obj(), indent=2, sort_keys=True), args.out)
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


def _parse_durfee_filter(text: str) -> Dict[str, object]:
    # "r=1,s=2,ranks=-1,-1,-1": bare tokens extend the previous key's list
    out: Dict[str, object] = {}
    key = None
    for tok in text.split(","):
        if "=" in tok:
            key, val = tok.split("=", 1)
            key = key.strip()
            out[key] = [val.strip()]
        elif key is not None:
            out[key].append(tok.strip())
        else:
            raise UsageError(f"bad filter token {tok!r}")
    parsed: Dict[str, object] = {}
    for k, vals in out.items():
        if k in ("r", "s", "S", "full_rank"):
            if len(vals) != 1:
                raise UsageError(f"filter key {k} takes one value")
            parsed[k] = int(vals[0])
        elif k == "ranks":
            parsed[k] = tuple(int(v) for v in vals)
        else:
            raise UsageError(f"unknown filter key {k!r}")
    return parsed


def cmd_enumerate(args) -> int:
    n = args.n_max
    if n is None:
        raise UsageError("enumerate requires --n")
    if args.kind == "pairs":
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
    rows = []
    for sym in oracle.enumerate_durfee(args.k, n, want.get("r"), want.get("s"),
                                       want.get("ranks")):
        r, s = sym.stats()
        ranks = sym.ranks()
        if want.get("S") is not None and sym.S != want["S"]:
            continue
        if want.get("full_rank") is not None and sym.full_rank() != want["full_rank"]:
            continue
        rows.append([str(sym.S), _fmt_marked_row(sym.top), _fmt_marked_row(sym.bottom),
                     ",".join(map(str, sym.mu)) or "-", ",".join(map(str, sym.nu)) or "-",
                     str(r), str(s), ",".join(map(str, ranks)), str(sym.full_rank())])
    rows.sort()
    _rows_out(["S", "top", "bottom", "mu", "nu", "r", "s", "ranks", "full_rank"],
              rows, args.format, args.out,
              footer=f"{len(rows)} symbols of weight {n} (k={args.k})")
    return 0


# ---------------------------------------------------------------------------
# moments / spt


def cmd_moments(args) -> int:
    series = builders.n2v(args.v, args.n_max)
    rows = [[str(n), str(series.coefficient(n))] for n in range(args.n_max + 1)]
    _rows_out(["n", f"moment_2v{args.v}"], rows, args.format, args.out)
    return 0


def cmd_spt(args) -> int:
    series = builders.spt_gf(args.n_max)
    rows = []
    for n in range(args.n_max + 1):
        c = series.coefficient(n)
        total = c
        for name in c.params:
            total = total.eval(name, 1)
        rows.append([str(n), str(c), str(total.constant_value())])
    _rows_out(["n", "refined", "total"], rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify / report


def cmd_verify(args) -> int:
    results = harness.run_suite(args.filter or "*", args.order)
    if not results:
        raise UsageError(f"no checks match filter {args.filter!r}")
    if args.format == "json":
        _emit(harness.report_json(results), args.out)
    else:
        _emit(harness.report_text([r.body() for r in results]), args.out)
    return 0 if all(r.status == "pass" for r in results) else 1


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
    items = [checks[k] for k in sorted(checks)]
    summary = harness.summarize(items)
    if args.format == "text":
        _emit(harness.report_text(items), args.out)
    else:
        _emit(json.dumps({"summary": summary, "checks": items}, indent=2, sort_keys=True),
              args.out)
    return 0 if summary["failed"] == 0 and summary["errors"] == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qpairs",
        description="Exact q-series coefficients, enumeration, and identity checks.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, formats=("json", "csv", "text"), default="text"):
        sp.add_argument("--format", choices=formats, default=default)
        sp.add_argument("--out", metavar="PATH", default=None)

    sp = sub.add_parser("coeffs", help="expand a named series to a coefficient table")
    sp.add_argument("builder", help="builder identifier, e.g. n2v:v=1 or E2")
    sp.add_argument("--order", type=int, default=10)
    sp.add_argument("--params", default=None, metavar="k=v,...")
    common(sp)
    sp.set_defaults(fn=cmd_coeffs)

    sp = sub.add_parser("enumerate", help="list combinatorial objects of one weight")
    sp.add_argument("kind", choices=("pairs", "durfee"))
    sp.add_argument("--n", "--n-max", dest="n_max", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--filter", default=None,
                    help='durfee only, e.g. "r=1,s=2,ranks=-1,-1,-1"')
    sp.add_argument("--force", action="store_true",
                    help="lift the enumeration size cap")
    common(sp)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("moments", help="symmetrized rank moment table")
    sp.add_argument("--v", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=12)
    common(sp)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("spt", help="smallest-parts counts with refinement")
    sp.add_argument("--n-max", type=int, default=12)
    common(sp)
    sp.set_defaults(fn=cmd_spt)

    sp = sub.add_parser("verify", help="run identity checks")
    sp.add_argument("--filter", default=None, metavar="GLOB")
    sp.add_argument("--order", type=int, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("report", help="merge JSON check reports")
    sp.add_argument("files", nargs="+", metavar="REPORT.json")
    common(sp, formats=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_report)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if getattr(args, "v", 1) < 1:
        print("error: --v must be at least 1", file=sys.stderr)
        return 2
    for flag in ("order", "n_max"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            print(f"error: --{flag.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, TruncationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
