"""Batch command line front end.

Every subcommand validates its whole configuration before any computation
starts, in two stages: argparse checks each argument on its own (the
``type=`` callables ``_positive``, ``_field`` and ``_weight``, and
``choices``), and the top of each handler checks what spans arguments
(the ``--weight`` length against n, ``--r`` with ``--s``, the labels of
``gram``, the shape of ``cache build``).  A rejected configuration exits
with code 1 and a single-line reason.  Queries read structure-constant
tables and never build one: ``cache build`` is the only command that
does, and a query whose table is missing or unreadable exits 1 with one
line naming the command to run.  The command set, with each command's
handler, formats and arguments, is written once, in ``_COMMANDS``.
Results go to standard output (or ``--out``), always in a deterministic
byte order, while progress chatter is confined to standard error.  Exit
codes: 0 for success, 1 for usage or environment problems, 2 when a
computation contradicts one of the built-in oracles.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys

from . import combinat, engine, repthy, scalars, tensor
from .errors import (
    IntegralityViolation,
    OracleMismatch,
    TraceSystemSingular,
    WbqError,
)
from .scalars import FieldSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

_MISMATCH_ERRORS = (OracleMismatch, IntegralityViolation,
                    TraceSystemSingular)


class UsageError(Exception):
    """A configuration problem reported as a one-line reason, exit 1."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1 and a
    single-line reason, and which takes integers after a minus sign, alone
    or comma-separated (``--weight -1,0,0``), as a value, not a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        sys.stderr.write("error: %s: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _progress(message):
    sys.stderr.write("%s\n" % message)
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# argument types: each rejects a bad value through the parser's error
# ---------------------------------------------------------------------------

def _positive(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %r" % text)
    return value


def _field(text):
    try:
        return FieldSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "malformed field expression: %s" % exc)


def _weight(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be a comma-separated list of integers, got %r" % text)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _dump_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decomp(args):
    result = repthy.analyze(args.r, args.s, field=args.field,
                            cache_dir=args.cache_dir)
    if args.output == "latex":
        text = repthy.result_to_latex(result)
    elif args.output == "csv":
        text = repthy.result_to_csv(result)
    else:
        payload = dict(result)
        payload["kind"] = "decomposition"
        text = _dump_json(payload)
    _emit(args, text)
    violations = repthy.oracle_violations(result)
    if violations:
        sys.stderr.write("oracle mismatch: %s\n" % ",".join(violations))
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_gram(args):
    known = {repthy.label_text(label): label
             for label in combinat.enumerate_labels(args.r, args.s)}
    labels = list(known.values())
    if args.label:
        missing = [text for text in args.label if text not in known]
        if missing:
            raise UsageError("unknown label %r (known: %s)"
                             % (missing[0], "; ".join(sorted(known))))
        labels = [label for text, label in known.items()
                  if text in args.label]
    table = engine.structure_constants(args.r, args.s, mode=args.field,
                                       cache_dir=args.cache_dir)
    rows = []
    for label in labels:
        gram = repthy.gram_matrix(args.r, args.s, label, table=table)
        rows.append({
            "label": repthy.label_text(label),
            "dimension": gram.dim,
            "rank": gram.rank,
            "matrix": [[scalars.to_text(value) for value in row]
                       for row in gram.entries],
        })
    if args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "dimension", "rank"])
        for row in rows:
            writer.writerow([row["label"], row["dimension"], row["rank"]])
        text = buf.getvalue()
    else:
        text = _dump_json({"kind": "gram", "r": args.r, "s": args.s,
                           "field": args.field.to_string(), "labels": rows})
    _emit(args, text)
    return EXIT_OK


def cmd_blocks(args):
    partition = repthy.blocks(args.r, args.s, field=args.field,
                              cache_dir=args.cache_dir)
    payload = {
        "kind": "blocks",
        "r": args.r,
        "s": args.s,
        "field": args.field.to_string(),
        "blocks": [[repthy.label_text(label) for label in block]
                   for block in partition],
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_semisimple(args):
    computed, predicted = repthy.semisimplicity(
        args.r, args.s, field=args.field, cache_dir=args.cache_dir)
    payload = {
        "kind": "semisimple",
        "r": args.r,
        "s": args.s,
        "field": args.field.to_string(),
        "computed": computed,
        "predicted": predicted,
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_singular(args):
    n = args.n or args.r + args.s
    if len(args.weight) != n:
        raise UsageError("--weight needs exactly n=%d entries, got %d"
                         % (n, len(args.weight)))
    vectors = tensor.singular_space(args.weight, n, args.r, args.s,
                                    spec=args.field)
    basis = []
    for vec in vectors:
        basis.append([
            {"index": list(idx), "coefficient": scalars.to_text(value)}
            for idx, value in sorted(vec.items())
        ])
    payload = {
        "kind": "singular",
        "r": args.r,
        "s": args.s,
        "n": n,
        "field": args.field.to_string(),
        "weight": list(args.weight),
        "dimension": len(vectors),
        "basis": basis,
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_schur_weyl(args):
    n = args.n or args.r + args.s
    rank = repthy.schur_weyl_rank(n, args.r, args.s)
    order = math.factorial(args.r + args.s)
    payload = {
        "kind": "schur_weyl",
        "n": n,
        "r": args.r,
        "s": args.s,
        "rank": rank,
        "order": order,
        "equal": rank == order,
    }
    _emit(args, _dump_json(payload))
    return EXIT_OK


def cmd_cache(args):
    if args.action == "build":
        if args.r is None or args.s is None:
            raise UsageError("cache build needs --r and --s")
        path = engine.cache_path(args.r, args.s, args.cache_dir)
        existed = os.path.exists(path)
        if not existed:
            # built, not resolved: a bundled table must not stand in
            table = engine.build_generic_table(args.r, args.s,
                                               args.seed, _progress)
            engine.save_table(table, path)
        payload = {
            "kind": "cache",
            "action": "build",
            "path": path,
            "existed": existed,
            "bytes": os.path.getsize(path),
        }
    else:
        directory = engine.cache_directory(args.cache_dir)
        names = []
        if os.path.isdir(directory):
            names = sorted(name for name in os.listdir(directory)
                           if name.startswith("constants_")
                           and name.endswith(".json"))
        if args.action == "clear":
            for name in names:
                os.unlink(os.path.join(directory, name))
            payload = {"kind": "cache", "action": "clear",
                       "cache_dir": directory, "removed": names}
        else:
            payload = {
                "kind": "cache",
                "action": "list",
                "cache_dir": directory,
                "files": [{"name": name,
                           "bytes": os.path.getsize(
                               os.path.join(directory, name))}
                          for name in names],
            }
    _emit(args, _dump_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the verification grid
# ---------------------------------------------------------------------------

def grid_fields():
    """The versioned comparison grid: quantum characteristic 2, 3 and
    infinity crossed with rho in {q^a : -2 <= a <= 4} and free rho.  On
    ``cyclo:m`` the tie a is read mod m, so the 24 pairs give 17 distinct
    fields, listed in the order the pairs first meet them."""
    fields = []
    for e in (2, 3, None):
        for a in list(range(-2, 5)) + ["free"]:
            if e is None:
                spec = (FieldSpec.generic() if a == "free"
                        else FieldSpec.qpower(a))
            else:
                spec = FieldSpec.cyclotomic(4 if e == 2 else 3, a)
            if spec not in fields:
                fields.append(spec)
    return fields


def _check_relations(r, s):
    sample = 50 if r + s >= 5 else None
    failures = repthy.relation_suite(r, s, sample=sample)
    return (not failures, ",".join(failures))


def _check_schur_weyl(r, s):
    rank = repthy.schur_weyl_rank(r + s, r, s)
    order = math.factorial(r + s)
    return (rank == order, "rank %d, expected %d" % (rank, order))


def _check_singular(r, s):
    n = r + s
    fields = [FieldSpec.qpower(n),
              FieldSpec.cyclotomic(4, n % 4),
              FieldSpec.cyclotomic(3, n % 3)]
    for spec in fields:
        repthy.singular_dimension_check(r, s, field=spec, n=n)
    return (True, "")


def _check_semisimple(r, s):
    for spec in grid_fields():
        repthy.semisimplicity(r, s, field=spec)
    return (True, "")


def _check_blocks1(r, s):
    for spec in (FieldSpec.cyclotomic(4, "free"),
                 FieldSpec.cyclotomic(3, "free")):
        outcome = repthy.blocks1_comparison(r, s, field=spec)
        if outcome is False:
            return (False, "entrywise identity fails over %s"
                    % spec.to_string())
    return (True, "")


# The ties rho = q^a that ``verify --only einfty`` checks: the grid's and
# beyond, to |a| well above every r + s of a bundled table.
EINFTY_EXPONENTS = range(-12, 17)


def _check_einfty(r, s):
    for a in EINFTY_EXPONENTS:
        outcome = repthy.einfty_comparison(r, s, field=FieldSpec.qpower(a))
        if outcome is False:
            return (False, "matrices differ at a=%d" % a)
    return (True, "")


# The verify suites, in canonical order.
_SUITE_RUNNERS = {
    "relations": _check_relations,
    "schur-weyl": _check_schur_weyl,
    "singular": _check_singular,
    "semisimple": _check_semisimple,
    "blocks1": _check_blocks1,
    "einfty": _check_einfty,
}


def cmd_verify(args):
    """Run each suite on each shape; a ``WbqError`` fails only its check."""
    if (args.r is None) != (args.s is None):
        raise UsageError("--r and --s must be given together")
    shapes = [(args.r, args.s)] if args.r else [(1, 1), (1, 2), (2, 1)]
    checks = []
    for suite in [args.only] if args.only else _SUITE_RUNNERS:
        for (r, s) in shapes:
            try:
                ok, detail = _SUITE_RUNNERS[suite](r, s)
            except WbqError as exc:
                ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
            checks.append({"id": "%s:r%ds%d" % (suite, r, s),
                           "ok": bool(ok), "detail": detail})
    failures = [check["id"] for check in checks if not check["ok"]]
    if args.output == "json":
        _emit(args, _dump_json({"kind": "verify", "checks": checks,
                                "failures": failures}))
    else:
        _emit(args, "".join(
            "PASS %s\n" % check["id"] if check["ok"]
            else "FAIL %s  (%s)\n" % (check["id"], check["detail"])
            for check in checks))
    if failures:
        sys.stderr.write("failed: %s\n" % ",".join(failures))
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# The add_argument settings of every argument a command may take.
_ARGUMENTS = {
    "action": dict(choices=("list", "clear", "build")),
    "--r": dict(type=_positive, required=True,
                help="number of left tensor factors"),
    "--s": dict(type=_positive, required=True,
                help="number of right (dual) tensor factors"),
    "--field": dict(type=_field, default=FieldSpec.generic(),
                    help="generic | qpow:<a> | "
                         "cyclo:<m>[,rho=zeta^<a>|rho=free]"),
    "--n": dict(type=_positive,
                help="rows of the tensor model (default r+s)"),
    "--seed": dict(type=int, default=0,
                   help="seed of the random tensor-space vectors that the "
                        "build's coordinate systems act on; the table's "
                        "content does not depend on it"),
    "--cache-dir": dict(help="structure-constant cache directory "
                             "(default $WBQ_CACHE_DIR)"),
    "--only": dict(choices=tuple(_SUITE_RUNNERS),
                   help="restrict to one suite"),
    "--label": dict(action="append",
                    help="restrict to this label (repeatable), e.g. "
                         "'f=0,[1]|[1]'"),
    "--weight": dict(type=_weight, required=True,
                     help="comma-separated weight, one entry per row, "
                          "e.g. '1,-1'"),
}

_SHAPE = ("--r", "--s")
# what a command that resolves a structure-constant table reads
_TABLE = ("--field", "--cache-dir")

# Each command: its handler, its help text, its output formats (the first
# is the default) and the arguments of ``_ARGUMENTS`` it takes besides
# --output and --out.  A name ending in "?" is optional on that command.
_COMMANDS = {
    "decomp": (cmd_decomp, "decomposition matrix with Gram ranks, blocks "
                           "and oracle checks",
               ("json", "latex", "csv"), _SHAPE + _TABLE),
    "verify": (cmd_verify, "run the invariant suites over the versioned "
                           "grid",
               ("table", "json"), ("--r?", "--s?", "--only")),
    "gram": (cmd_gram, "per-label Gram matrices and ranks",
             ("json", "csv"), _SHAPE + _TABLE + ("--label",)),
    "blocks": (cmd_blocks, "partition of the labels into blocks",
               ("json",), _SHAPE + _TABLE),
    "semisimple": (cmd_semisimple, "computed vs predicted semisimplicity",
                   ("json",), _SHAPE + _TABLE),
    "singular": (cmd_singular, "basis of one singular weight space of the "
                               "tensor model",
                 ("json",), _SHAPE + ("--field", "--n", "--weight")),
    "schur-weyl": (cmd_schur_weyl, "rank of the algebra image on the "
                                   "tensor space",
                   ("json",), _SHAPE + ("--n",)),
    "cache": (cmd_cache, "list, clear or build structure-constant "
                         "caches",
              ("json",), ("action", "--r?", "--s?", "--seed", "--cache-dir")),
}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process on first use."""
    parser = _Parser(
        prog="wbq",
        description="Exact cell modules, Gram forms, decomposition "
                    "matrices and blocks of quantized walled Brauer "
                    "algebras.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="command")
    for command, (handler, text, outputs, names) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        sub.set_defaults(handler=handler)
        for name in names:
            settings = dict(_ARGUMENTS[name.rstrip("?")])
            if name.endswith("?"):
                settings["required"] = False
            sub.add_argument(name.rstrip("?"), **settings)
        sub.add_argument("--output", choices=outputs, default=outputs[0],
                         help="output format")
        sub.add_argument("--out",
                         help="write the result to this file instead of "
                              "stdout")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except _MISMATCH_ERRORS as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return EXIT_MISMATCH
    except WbqError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
