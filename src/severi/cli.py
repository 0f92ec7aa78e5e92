"""Command-line front end with machine-readable output.

Standard output carries exactly one JSON document (or CSV for table);
progress notes go to standard error, and so does the error document when
standard output cannot be written.  Exit codes: 0 success, 1 bad input
or environment, 2 internal inconsistency (a mathematical check failed,
which means a defect, not a user error).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from typing import Sequence

from . import engine
from .tangency import seq_from_text, seq_to_text

DEFAULT_CACHE_PATH = "./severi.cache"
CACHE_ENV_VAR = "SEVERI_CACHE"


class UsageError(ValueError):
    """Bad command line: unknown flag, missing argument, unparsable value."""


# every bad-input class (UsageError, InvalidState, ParseError, ...) is a ValueError;
# OSError and MemoryError (a recursion whose states outgrow memory) are the environment's
_INPUT_ERRORS = (ValueError, OSError, MemoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by later `main` calls; that is safe, as
    each `parse_args` call gets a fresh `Namespace` and argparse keeps no
    per-call state on the parser."""
    parser = _Parser(prog="severi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run, store: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_with_store(run) if store else run)
        if store:
            p.add_argument("--cache", default=None, metavar="PATH")
            p.add_argument("--no-cache", action="store_true")
        return p

    p = add("count", "one Severi degree, optionally with tangency conditions", _run_count)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--alpha", default=None, metavar="SEQ")
    p.add_argument("--beta", default=None, metavar="SEQ")

    p = add("table", "all Severi degrees up to a degree and node bound", _run_table)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--deltamax", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("nodepoly", "fit one node polynomial", _run_nodepoly)
    p.add_argument("--delta", type=int, required=True)

    p = add("threshold", "least degree from which the node polynomial counts", _run_threshold)
    p.add_argument("--delta", type=int, required=True)

    p = add("logforms", "quadratic forms in the log of the generating function", _run_logforms)
    p.add_argument("--deltamax", type=int, required=True)

    # bell and forms compute no count, so they take neither store flag
    p = add("bell", "complete Bell polynomial of given rational arguments", _run_bell, store=False)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--values", required=True, metavar="RAT[,RAT...]")

    p = add("bseries", "extract B1 and B2 from plane data", _run_bseries)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dlist", required=True, metavar="D[,D...]")

    p = add("predict", "predict counts for a plane degree from extracted B-series", _run_predict)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dlist", required=True, metavar="D[,D...]")

    p = add("forms", "dump the quasimodular form catalog", _run_forms, store=False)
    p.add_argument("--order", type=int, required=True)

    # the cache command acts on the file itself, so it takes no --no-cache
    p = add("cache", "inspect or drop the persistent cache", _run_cache, store=False)
    p.add_argument("--cache", default=None, metavar="PATH")
    p.add_argument("action", choices=["stats", "clear"])

    return parser


def _cache_path(args: argparse.Namespace) -> str:
    if args.cache == "":
        raise UsageError("--cache needs a nonempty path")
    return args.cache or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH


def _with_store(run):
    """Give a runner the store it computes with, and persist its new roots.

    The save is skipped when the run asked for nothing the file lacks, so
    read-only calls never rewrite the file.
    """

    def wrapper(args: argparse.Namespace):
        if args.no_cache:
            return run(args, engine.CacheStore())
        path = _cache_path(args)
        store = engine.cache_load(path)
        known = store.root_count
        doc = run(args, store)
        if store.root_count > known:
            engine.cache_save(store, path)
        return doc

    return wrapper


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}")


def _run_count(args, store) -> dict:
    doc: dict = {"d": args.d, "delta": args.delta}
    alpha = seq_from_text(args.alpha) if args.alpha is not None else ()
    beta = seq_from_text(args.beta) if args.beta is not None else None
    if args.alpha is not None:
        doc["alpha"] = seq_to_text(alpha)
    if args.beta is not None:
        doc["beta"] = seq_to_text(beta)
    if not alpha and beta in (None, (args.d,)):  # the absolute count N^{d,delta}
        value = engine.severi_degree(args.d, args.delta, cache=store)
    else:
        value = engine.relative_severi(args.d, args.delta, alpha, beta, cache=store)
    doc["value"] = str(value)
    return doc


def _run_table(args, store) -> dict | list[str]:
    rows = engine.severi_table(args.dmax, args.deltamax, cache=store)
    if args.format == "csv":
        lines = ["d,delta,value"]
        for d, row in enumerate(rows, start=1):
            for delta, value in enumerate(row):
                lines.append(f"{d},{delta},{value}")
        return lines
    return {
        "dmax": args.dmax,
        "deltamax": args.deltamax,
        "rows": [[str(v) for v in row] for row in rows],
    }


def _run_nodepoly(args, store) -> dict:
    from . import nodepoly

    poly = nodepoly.fit_node_polynomial(args.delta, cache=store)
    return {
        "delta": poly.delta,
        "coeffs": [str(c) for c in poly.coeffs],
        "fit_range": list(poly.fit_range),
        "verified": True,  # node_values raises when its read fails the q(u)/u check
    }


def _run_threshold(args, store) -> dict:
    from . import nodepoly

    report = nodepoly.threshold_report(args.delta, cache=store)
    if report.witness is not None:
        w = report.witness
        _progress(
            f"witness: T_{args.delta}({w.d}) = {w.predicted} vs count {w.actual}"
        )
    return {"delta": report.delta, "threshold": report.threshold}


def _run_logforms(args, store) -> dict:
    from . import nodepoly

    out = nodepoly.log_forms(args.deltamax, cache=store)
    return {
        "deltamax": args.deltamax,
        "forms": [
            {"kappa": f.kappa, "a2": str(f.a2), "a1": str(f.a1), "a0": str(f.a0)}
            for f in out
        ],
    }


def _run_bell(args) -> dict:
    from fractions import Fraction

    from . import nodepoly

    try:
        values = [Fraction(part) for part in args.values.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--values expects comma-separated rationals, got {args.values!r}")
    result = nodepoly.bell_polynomial(args.delta, values)
    return {
        "delta": args.delta,
        "values": [str(v) for v in values],
        "value": str(result),
    }


def _run_bseries(args, store) -> dict:
    from . import gyz

    degrees = _parse_int_list(args.dlist, "--dlist")
    sol = gyz.extract_b_series(args.order, degrees, cache=store)
    read = engine.read_degrees(args.order)
    _progress(f"extracting B-series to order {args.order} from degrees {read[0]}..{read[-1]}")
    return {
        "order": sol.order,
        "b1": sol.b1.to_strings(),
        "b2": sol.b2.to_strings(),
        "d_used": list(sol.d_used),
        "consistent": True,  # node_values raises when the read fails its q(u)/u check
        "integral": sol.integral,
    }


def _run_predict(args, store) -> dict:
    from . import gyz

    degrees = _parse_int_list(args.dlist, "--dlist")
    invariants = gyz.plane_invariants(args.d)  # a bad --d fails before the extraction
    sol = gyz.extract_b_series(args.order, degrees, cache=store)
    read = engine.read_degrees(args.order)
    if args.d in read:
        _progress(f"note: --d {args.d} is a degree the extraction read ({read[0]}..{read[-1]}), "
                  "prediction is in-sample")
    values = gyz.gyz_predict(invariants, sol)
    return {
        "d": args.d,
        "order": args.order,
        "values": [str(v) for v in values],
    }


def _run_forms(args) -> dict:
    from . import forms

    catalog = forms.form_catalog(args.order)
    return {
        "order": catalog.order,
        "u": catalog.u.to_strings(),
        "b3": catalog.b3.to_strings(),
        "b4": catalog.b4.to_strings(),
        "delta_form": catalog.delta_form.to_strings(),
    }


def _run_cache(args) -> dict:
    path = _cache_path(args)
    if args.action == "clear":
        try:
            os.remove(path)
        except FileNotFoundError:
            return {"path": path, "cleared": False}
        return {"path": path, "cleared": True}
    store, size = engine.cache_load(path), 0
    with contextlib.suppress(FileNotFoundError):  # no file, or one removed since
        size = os.path.getsize(path)
    absolute = sum(1 for (d, _, alpha, beta), _ in store.items() if not alpha and beta == (d,))
    return {
        "path": path,
        "version": engine.CACHE_VERSION,
        "entries": len(store),
        "absolute": absolute,
        "relative": len(store) - absolute,
        "bytes": size,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        doc = args.run(args)
        # table --format csv returns its lines; every other document is JSON
        text, code = "\n".join(doc) if isinstance(doc, list) else json.dumps(doc), 0
    except engine.InternalInconsistency as exc:  # the math is wrong, not the input
        text, code = _error_text(exc), 2
    except _INPUT_ERRORS as exc:
        text, code = _error_text(exc), 1
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:  # a full device or a closed pipe
        print(_error_text(exc), file=sys.stderr)
        return code or 1
    return code


def _error_text(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
