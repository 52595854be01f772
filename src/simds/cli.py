"""Command-line front end.

Results go to stdout as JSON (or CSV for tabular output); diagnostics
and progress go to stderr.  Exit codes: 0 success, 2 bad input,
3 budget exceeded, 4 internal mismatch or failed count verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import permutations

from .census import (CSV_HEADER, SET_NAMES, _distinct_diag_inner_formula,
                     distinct_diag_inner_count, run_census)
from .construct import (SiParams, build_matrix, curupira_is_mds,
                        curupira_matrix, extract_xy, predicted_invariants,
                        sum_conditions)
from .errors import BudgetError, InternalMismatchError
from .field import GF, json_ints
from .matrix import CHECK_BUDGET, Diagonal, Matrix
from .si import SiVerdict, canonical_witness, si_check_3x3, si_oracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4


def _field_from_args(args) -> GF:
    if args.p == 2 and args.m >= 2 and args.poly is None:
        raise ValueError("--poly is required: there is no default modulus")
    return GF(args.p, args.m, args.poly)


def _load_payload(args) -> dict:
    if args.json is not None:
        text = args.json
    elif args.file == "-":
        text = sys.stdin.read()
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise ValueError("provide --json, --file, or --file - for stdin")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON payload is nested too deeply") from None


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _add_field_flags(sub) -> None:
    sub.add_argument("--p", type=int, default=2, help="field characteristic")
    sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--poly", type=lambda s: int(s, 0), default=None,
                     help="modulus polynomial bits, e.g. 13 or 0b1101")


def _add_payload_flags(sub) -> None:
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument("--json", help="inline JSON payload")
    grp.add_argument("--file", help="path to a JSON file, or - for stdin")


def cmd_field_table(args) -> int:
    gf = _field_from_args(args)
    rows = [{"value": v, "inverse": gf.inv(v) if v else None} for v in gf.elements()]
    if args.format == "csv":
        print("value,inverse")
        for r in rows:
            print(f"{r['value']},{'' if r['inverse'] is None else r['inverse']}")
    else:
        _emit({"field": gf.to_dict(), "q": gf.q, "elements": rows},
              args.format == "pretty")
    return EXIT_OK


def _check_report(A: Matrix) -> dict:
    if A.n ** 2 > CHECK_BUDGET:  # det, is_involutory and the oracle grow like n^3
        raise BudgetError(f"n^2 = {A.n ** 2} entries exceed the check budget {CHECK_BUDGET}")
    rep: dict = {"mds": A.is_mds(), "involutory": A.is_involutory()}
    if A.det() == 0:
        rep.update({"si": False, "branch": "not-si", "singular": True})
        return rep
    if A.n == 3:
        verdict = si_check_3x3(A)
    else:
        verdict = si_oracle(A)
        if verdict.si and A.gf.p == 2 and verdict.c is not None:
            d, c, a = canonical_witness(A, verdict.witness)
            verdict = SiVerdict(True, verdict.branch, d, c, a)
    rep.update(verdict.to_dict())
    return rep


def cmd_check(args) -> int:
    A = Matrix.from_dict(_load_payload(args))
    _emit(_check_report(A), args.format == "pretty")
    return EXIT_OK


def cmd_build(args) -> int:
    params = SiParams.from_dict(_load_payload(args))
    A = build_matrix(params)
    sums = sum_conditions(params)
    det, ada = predicted_invariants(params)
    _emit({"matrix": A.to_dict(),
           "sums": sums.to_dict(),
           "det": det,
           "ada": list(ada),
           "mds": sums.all_nonzero,
           "si": sums.s != 0},
          args.format == "pretty")
    return EXIT_OK


def cmd_extract(args) -> int:
    payload = _load_payload(args)
    A = Matrix.from_dict(payload["matrix"])
    D = Diagonal(A.gf, json_ints(payload["D"], "'D'"))
    got = extract_xy(A, D)
    if got is None:
        _emit({"found": False}, args.format == "pretty")
    else:
        _emit({"found": True, "x": got[0], "y": got[1]}, args.format == "pretty")
    return EXIT_OK


def cmd_curupira(args) -> int:
    gf = _field_from_args(args)
    M = curupira_matrix(gf, args.a, args.b)
    _emit({"matrix": M.to_dict(),
           "involutory": M.is_involutory(),
           "mds": curupira_is_mds(gf, args.a, args.b),
           "mds_recheck": M.is_mds()},
          args.format == "pretty")
    return EXIT_OK


def _print_reports(reports, fmt: str) -> None:
    if fmt == "csv":
        print(CSV_HEADER)
        for r in reports:
            print(r.csv_row())
    elif fmt == "pretty":
        for r in reports:
            brute = "-" if r.brute_force_value is None else r.brute_force_value
            match = "-" if r.match is None else ("ok" if r.match else "MISMATCH")
            line = (f"{r.set_name:<8} q={r.q:<3} formula={r.formula_value:<12} "
                    f"brute={brute:<12} {match} ({r.seconds:.2f}s)")
            if r.note:
                line += f"  [{r.note}]"
            print(line)
    else:
        for r in reports:
            print(json.dumps(r.to_dict()))


def _budget_exit(reports) -> int | None:
    """Print a `budget:` line to stderr for each report whose brute force
    was over budget.  When there is one, return the exit code: a
    mismatch elsewhere still wins over the budget."""
    budget_only = [r for r in reports if r.match is None and r.note]
    for r in budget_only:
        print(f"budget: {r.set_name}: {r.note}", file=sys.stderr)
    if not budget_only:
        return None
    return EXIT_MISMATCH if any(r.match is False for r in reports) else EXIT_BUDGET


def cmd_count(args) -> int:
    gf = _field_from_args(args)
    sets = SET_NAMES if args.set == "all" else tuple(args.set.split(","))
    progress = None
    if args.progress:
        def progress(frac):
            print(f"progress {frac:.0%}", file=sys.stderr)
    reports = run_census(gf, sets, mode=args.mode, exhaustive=args.exhaustive,
                         long_run=args.long_run, jobs=args.jobs, progress=progress)
    _print_reports(reports, args.format)
    code = _budget_exit(reports)
    if code is not None:
        return code
    return EXIT_MISMATCH if any(r.match is False for r in reports) else EXIT_OK


def cmd_verify_lemmas(args) -> int:
    gf = _field_from_args(args)
    reports = run_census(gf, ("S", "S1", "S2", "S3", "S4", "S5"), jobs=args.jobs)
    _print_reports(reports, args.format)
    code = _budget_exit(reports)
    if code is not None:
        return code
    parts = {r.set_name: r.brute_force_value for r in reports}
    partition_ok = parts["S"] == sum(parts[k] for k in ("S1", "S2", "S3", "S4", "S5"))
    triples = list(permutations(gf.elements(True), 3))
    inner_ok = all([distinct_diag_inner_count(gf, *t)
                    == _distinct_diag_inner_formula(gf.q, *t) for t in triples])
    checked = len(triples)
    summary = {"partition_identity": partition_ok,
               "distinct_diag_identity": inner_ok,
               "inner_triples_checked": checked,
               "all_match": all(r.match for r in reports)}
    print(json.dumps(summary))
    ok = summary["all_match"] and partition_ok and inner_ok
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simds",
        description="3x3 semi-involutory MDS matrices over GF(2^m): "
                    "build, check, and count")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-table", help="print a field's element table")
    _add_field_flags(p)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(fn=cmd_field_table)

    p = sub.add_parser("check", help="MDS / involutory / semi-involutory verdicts "
                                     "for a matrix")
    _add_payload_flags(p)
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("build", help="build a matrix from 8 parameters")
    _add_payload_flags(p)
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("extract", help="recover (x, y) from a matrix and an "
                                       "associated diagonal")
    _add_payload_flags(p)
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("curupira", help="the involutory family I + aA + bB")
    _add_field_flags(p)
    p.add_argument("--a", type=lambda s: int(s, 0), required=True)
    p.add_argument("--b", type=lambda s: int(s, 0), required=True)
    p.add_argument("--format", choices=("json", "pretty"), default="json")
    p.set_defaults(fn=cmd_curupira)

    p = sub.add_parser("count", help="closed-form vs brute-force census")
    _add_field_flags(p)
    p.add_argument("--set", default="all",
                   help=f"comma-separated subset of {','.join(SET_NAMES)}, or 'all'")
    p.add_argument("--mode", choices=("both", "formula"), default="both")
    p.add_argument("--exhaustive", action="store_true",
                   help="use the full matrix scan for SI_MDS instead of the "
                        "parametrized enumeration")
    p.add_argument("--long-run", action="store_true",
                   help="allow the q=16 parametrized enumeration "
                        "(about 47 s on one core)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--progress", action="store_true",
                   help="report progress on stderr")
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("verify-lemmas", help="verify the tuple-set counting "
                                             "identities by brute force")
    _add_field_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    p.set_defaults(fn=cmd_verify_lemmas)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as err:
        print(f"budget: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalMismatchError as err:
        print(f"internal mismatch: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, KeyError, TypeError, OSError, ZeroDivisionError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
