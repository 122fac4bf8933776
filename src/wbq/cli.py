"""Batch command line front end.

Every subcommand parses and validates its whole configuration before any
computation starts; a rejected configuration exits with code 1 and a
single-line reason.  Results go to standard output (or ``--out``), always
in a deterministic byte order, while progress chatter is confined to
standard error.  Exit codes: 0 for success, 1 for usage or environment
problems, 2 when a computation contradicts one of the built-in oracles.
"""

import argparse
import csv
import functools
import io
import json
import math
import os
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

_OUTPUTS = {
    "decomp": ("json", "latex", "csv"),
    "verify": ("table", "json"),
    "gram": ("json", "csv"),
    "blocks": ("json",),
    "semisimple": ("json",),
    "singular": ("json",),
    "schur-weyl": ("json",),
    "cache": ("json",),
}

# The shared flags each command reads, besides --r, --s, --output and --out.
_FLAGS = {
    "decomp": ("field", "seed", "cache-dir"),
    "verify": (),
    "gram": ("field", "seed", "cache-dir"),
    "blocks": ("field", "seed", "cache-dir"),
    "semisimple": ("field", "seed", "cache-dir"),
    "singular": ("field", "n"),
    "schur-weyl": ("n",),
    "cache": ("field", "seed", "cache-dir"),
}

_VERIFY_SUITES = ("relations", "schur-weyl", "singular", "semisimple",
                  "blocks1", "einfty")


class UsageError(Exception):
    """A configuration problem reported as a one-line reason, exit 1."""


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1 and a
    single-line reason."""

    def error(self, message):
        sys.stderr.write("error: %s: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _progress(message):
    sys.stderr.write("%s\n" % message)
    sys.stderr.flush()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class JobConfig:
    """A fully validated run: shared parameters plus per-command options."""

    __slots__ = ("command", "r", "s", "field", "n", "seed", "cache_dir",
                 "output", "out", "options")

    def __init__(self, command, r=None, s=None, field=None, n=None, seed=0,
                 cache_dir=None, output="json", out=None, options=None):
        self.command = command
        self.r = r
        self.s = s
        self.field = field
        self.n = n
        self.seed = seed
        self.cache_dir = cache_dir
        self.output = output
        self.out = out
        self.options = options or {}

    @classmethod
    def from_args(cls, args):
        command = args.command
        r = getattr(args, "r", None)
        s = getattr(args, "s", None)
        for name, value in (("r", r), ("s", s)):
            if value is not None and value < 1:
                raise UsageError("--%s must be a positive integer" % name)
        field = None
        if getattr(args, "field", None) is not None:
            try:
                field = FieldSpec.from_string(args.field)
            except ValueError as exc:
                raise UsageError("malformed field expression: %s" % exc)
        n = getattr(args, "n", None)
        if n is None and r is not None and s is not None:
            n = r + s
        if n is not None and n < 1:
            raise UsageError("--n must be a positive integer")
        config = cls(command, r=r, s=s, field=field, n=n,
                     seed=getattr(args, "seed", 0),
                     cache_dir=getattr(args, "cache_dir", None),
                     output=args.output, out=args.out)
        config._validate_options(args)
        return config

    def _validate_options(self, args):
        if self.command == "singular":
            text = args.weight
            try:
                weight = tuple(int(part) for part in text.split(","))
            except ValueError:
                raise UsageError("--weight must be a comma-separated list "
                                 "of integers")
            if len(weight) != self.n:
                raise UsageError("--weight needs exactly n=%d entries, got "
                                 "%d" % (self.n, len(weight)))
            self.options["weight"] = weight
        elif self.command == "verify":
            only = getattr(args, "only", None)
            if only is not None and only not in _VERIFY_SUITES:
                raise UsageError("unknown suite %r (choose from %s)"
                                 % (only, ", ".join(_VERIFY_SUITES)))
            if (self.r is None) != (self.s is None):
                raise UsageError("--r and --s must be given together")
            self.options["only"] = only
        elif self.command == "gram":
            self.options["labels"] = getattr(args, "label", None)
        elif self.command == "cache":
            action = args.action
            self.options["action"] = action
            if action == "build":
                if self.r is None or self.s is None:
                    raise UsageError("cache build needs --r and --s")
                if self.field is not None and self.field.kind != "generic":
                    raise UsageError("only the generic table is cached; "
                                     "drop --field or pass generic")

    @property
    def spec(self):
        return self.field if self.field is not None else FieldSpec.generic()


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _dump_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(config, text):
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decomp(config):
    result = repthy.analyze(config.r, config.s, field=config.spec,
                            seed=config.seed, cache_dir=config.cache_dir)
    if config.output == "latex":
        text = repthy.result_to_latex(result)
    elif config.output == "csv":
        text = repthy.result_to_csv(result)
    else:
        payload = dict(result)
        payload["kind"] = "decomposition"
        text = _dump_json(payload)
    _emit(config, text)
    violations = repthy.oracle_violations(result)
    if violations:
        sys.stderr.write("oracle mismatch: %s\n" % ",".join(violations))
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_gram(config):
    spec = config.spec
    table = engine.structure_constants(
        config.r, config.s, mode=spec,
        seed=config.seed, cache_dir=config.cache_dir)
    labels = list(combinat.enumerate_labels(config.r, config.s))
    wanted = config.options.get("labels")
    if wanted:
        known = {repthy.label_text(label): label for label in labels}
        missing = [text for text in wanted if text not in known]
        if missing:
            raise UsageError("unknown label %r (known: %s)"
                             % (missing[0], "; ".join(sorted(known))))
        labels = [label for label in labels
                  if repthy.label_text(label) in set(wanted)]
    rows = []
    for label in labels:
        gram = repthy.gram_matrix(config.r, config.s, label, table=table)
        rows.append({
            "label": repthy.label_text(label),
            "dimension": gram.dim,
            "rank": gram.rank,
            "matrix": [[scalars.to_text(value) for value in row]
                       for row in gram.entries],
        })
    if config.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "dimension", "rank"])
        for row in rows:
            writer.writerow([row["label"], row["dimension"], row["rank"]])
        text = buf.getvalue()
    else:
        text = _dump_json({"kind": "gram", "r": config.r, "s": config.s,
                           "field": spec.to_string(), "labels": rows})
    _emit(config, text)
    return EXIT_OK


def cmd_blocks(config):
    partition = repthy.blocks(config.r, config.s, field=config.spec,
                              seed=config.seed, cache_dir=config.cache_dir)
    payload = {
        "kind": "blocks",
        "r": config.r,
        "s": config.s,
        "field": config.spec.to_string(),
        "blocks": [[repthy.label_text(label) for label in block]
                   for block in partition],
    }
    _emit(config, _dump_json(payload))
    return EXIT_OK


def cmd_semisimple(config):
    computed, predicted = repthy.semisimplicity(
        config.r, config.s, field=config.spec, seed=config.seed,
        cache_dir=config.cache_dir)
    payload = {
        "kind": "semisimple",
        "r": config.r,
        "s": config.s,
        "field": config.spec.to_string(),
        "computed": computed,
        "predicted": predicted,
    }
    _emit(config, _dump_json(payload))
    return EXIT_OK


def cmd_singular(config):
    weight = config.options["weight"]
    spec = config.spec
    vectors = tensor.singular_space(weight, config.n, config.r, config.s,
                                    spec=spec)
    basis = []
    for vec in vectors:
        basis.append([
            {"index": list(idx), "coefficient": scalars.to_text(value)}
            for idx, value in sorted(vec.items())
        ])
    payload = {
        "kind": "singular",
        "r": config.r,
        "s": config.s,
        "n": config.n,
        "field": spec.to_string(),
        "weight": list(weight),
        "dimension": len(vectors),
        "basis": basis,
    }
    _emit(config, _dump_json(payload))
    return EXIT_OK


def cmd_schur_weyl(config):
    rank = repthy.schur_weyl_rank(config.n, config.r, config.s)
    order = math.factorial(config.r + config.s)
    payload = {
        "kind": "schur_weyl",
        "n": config.n,
        "r": config.r,
        "s": config.s,
        "rank": rank,
        "order": order,
        "equal": rank == order,
    }
    _emit(config, _dump_json(payload))
    return EXIT_OK


def cmd_cache(config):
    action = config.options["action"]
    directory = engine.cache_directory(config.cache_dir)
    if action == "build":
        path = engine.cache_path(config.r, config.s, config.cache_dir)
        existed = os.path.exists(path)
        if not existed:
            # built, not resolved: a bundled table must not stand in
            table = engine.build_generic_table(config.r, config.s,
                                               config.seed, _progress)
            engine.save_table(table, path)
        payload = {
            "kind": "cache",
            "action": "build",
            "path": path,
            "existed": existed,
            "bytes": os.path.getsize(path),
        }
    else:
        names = []
        if os.path.isdir(directory):
            names = sorted(name for name in os.listdir(directory)
                           if name.startswith("constants_")
                           and name.endswith(".json"))
        if action == "clear":
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
    _emit(config, _dump_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the verification grid
# ---------------------------------------------------------------------------

def grid_fields():
    """The versioned comparison grid: quantum characteristic 2, 3 and
    infinity crossed with rho in {q^a : -2 <= a <= 4} and free rho."""
    out = []
    for e in (2, 3, None):
        for a in list(range(-2, 5)) + ["free"]:
            if e is None:
                out.append(FieldSpec.generic() if a == "free"
                           else FieldSpec.qpower(a))
            else:
                out.append(FieldSpec.cyclotomic(4 if e == 2 else 3, a))
    return out


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


def _check_einfty(r, s):
    for a in (0, 1):
        outcome = repthy.einfty_comparison(r, s, field=FieldSpec.qpower(a))
        if outcome is False:
            return (False, "matrices differ at a=%d" % a)
    return (True, "")


_SUITE_RUNNERS = {
    "relations": _check_relations,
    "schur-weyl": _check_schur_weyl,
    "singular": _check_singular,
    "semisimple": _check_semisimple,
    "blocks1": _check_blocks1,
    "einfty": _check_einfty,
}


def verify_checks(shapes, only=None):
    """The (identifier, thunk) list for a verify run, in canonical order."""
    suites = [only] if only else list(_VERIFY_SUITES)
    checks = []
    for suite in suites:
        runner = _SUITE_RUNNERS[suite]
        for (r, s) in shapes:
            identifier = "%s:r%ds%d" % (suite, r, s)
            checks.append((identifier,
                           (lambda fn=runner, a=r, b=s: fn(a, b))))
    return checks


def _guarded(fn):
    try:
        ok, detail = fn()
        return (bool(ok), detail)
    except WbqError as exc:
        return (False, "%s: %s" % (type(exc).__name__, exc))


def cmd_verify(config):
    if config.r is not None:
        shapes = [(config.r, config.s)]
    else:
        shapes = [(r, s) for total in (2, 3)
                  for r in range(1, total) for s in (total - r,)]
    checks = verify_checks(shapes, only=config.options.get("only"))
    results = [_guarded(fn) for _, fn in checks]
    failures = []
    lines = []
    for (identifier, _), (ok, detail) in zip(checks, results):
        if ok:
            lines.append("PASS %s" % identifier)
        else:
            lines.append("FAIL %s  (%s)" % (identifier, detail))
            failures.append(identifier)
    if config.output == "json":
        payload = {
            "kind": "verify",
            "checks": [{"id": identifier, "ok": ok, "detail": detail}
                       for (identifier, _), (ok, detail)
                       in zip(checks, results)],
            "failures": failures,
        }
        _emit(config, _dump_json(payload))
    else:
        _emit(config, "\n".join(lines) + "\n")
    if failures:
        sys.stderr.write("failed: %s\n" % ",".join(failures))
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, command, rs_optional=False):
    """The shared options of ``command``: --r and --s, the flags it reads
    from ``_FLAGS``, and --output (first format of ``_OUTPUTS`` by
    default) and --out."""
    flags = _FLAGS[command]
    sub.add_argument("--r", type=int, required=not rs_optional,
                     help="number of left tensor factors")
    sub.add_argument("--s", type=int, required=not rs_optional,
                     help="number of right (dual) tensor factors")
    if "field" in flags:
        sub.add_argument("--field", default=None,
                         help="generic | qpow:<a> | "
                              "cyclo:<m>[,rho=zeta^<a>|rho=free]")
    if "n" in flags:
        sub.add_argument("--n", type=int, default=None,
                         help="rows of the tensor model (default r+s)")
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for randomized certificates")
    if "cache-dir" in flags:
        sub.add_argument("--cache-dir", default=None,
                         help="structure-constant cache directory "
                              "(default $WBQ_CACHE_DIR)")
    sub.add_argument("--output", choices=_OUTPUTS[command],
                     default=_OUTPUTS[command][0], help="output format")
    sub.add_argument("--out", default=None,
                     help="write the result to this file instead of stdout")


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

    sub = subs.add_parser("decomp", help="decomposition matrix with Gram "
                                         "ranks, blocks and oracle checks")
    _add_common(sub, "decomp")

    sub = subs.add_parser("verify", help="run the invariant suites over "
                                         "the versioned grid")
    _add_common(sub, "verify", rs_optional=True)
    sub.add_argument("--only", default=None,
                     help="restrict to one suite: %s"
                          % ", ".join(_VERIFY_SUITES))

    sub = subs.add_parser("gram", help="per-label Gram matrices and ranks")
    _add_common(sub, "gram")
    sub.add_argument("--label", action="append", default=None,
                     help="restrict to this label (repeatable), e.g. "
                          "'f=0,[1]|[1]'")

    sub = subs.add_parser("blocks", help="partition of the labels into "
                                         "blocks")
    _add_common(sub, "blocks")

    sub = subs.add_parser("semisimple", help="computed vs predicted "
                                             "semisimplicity")
    _add_common(sub, "semisimple")

    sub = subs.add_parser("singular", help="basis of one singular weight "
                                           "space of the tensor model")
    _add_common(sub, "singular")
    sub.add_argument("--weight", required=True,
                     help="comma-separated weight, one entry per row, "
                          "e.g. '1,-1'")

    sub = subs.add_parser("schur-weyl", help="rank of the algebra image "
                                             "on the tensor space")
    _add_common(sub, "schur-weyl")

    sub = subs.add_parser("cache", help="list, clear or prebuild "
                                        "structure-constant caches")
    sub.add_argument("action", choices=("list", "clear", "build"))
    _add_common(sub, "cache", rs_optional=True)

    return parser


_DISPATCH = {
    "decomp": cmd_decomp,
    "verify": cmd_verify,
    "gram": cmd_gram,
    "blocks": cmd_blocks,
    "semisimple": cmd_semisimple,
    "singular": cmd_singular,
    "schur-weyl": cmd_schur_weyl,
    "cache": cmd_cache,
}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = JobConfig.from_args(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    try:
        return _DISPATCH[config.command](config)
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
