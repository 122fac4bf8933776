"""The benchmark's workloads: job lists drawn from a seed, and the checks
that every job's output is right.

A job is one call into the package, timed on its own.  A pass is a
workload's fixed job list; a run repeats passes.  Every job is checked
after its pass ends, outside the timed region.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# -- query_mix key space ------------------------------------------------------

CLI_SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
CLI_COMMANDS = ("decomp", "gram", "blocks", "semisimple")
# The 17 distinct fields of the CLI's verification grid, by cost class.
FREE_FIELDS = ("cyclo:4,rho=free", "cyclo:3,rho=free")
QPOW_FIELDS = tuple("qpow:%d" % a for a in range(-2, 5))
ROOT_FIELDS = (tuple("cyclo:4,rho=zeta^%d" % a for a in range(4))
               + tuple("cyclo:3,rho=zeta^%d" % a for a in range(3)))
GRID_FIELDS = FREE_FIELDS + QPOW_FIELDS + ROOT_FIELDS + ("generic",)
# The slowest key of the grid, requested once in every pass.
HOT_ARGV = ("decomp", "--r", "2", "--s", "2", "--field", "cyclo:4,rho=free")
CLI_KINDS = CLI_COMMANDS + ("singular",)

# -- table_build inputs -------------------------------------------------------

BUILD_SHAPES = ((1, 1), (2, 1), (1, 2))
# (r, s, a): tables over qpow:a computed directly, a >= r+s.
DIRECT_TABLES = ((1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 1, 4))

# -- tensor_certify inputs ----------------------------------------------------

RELATION_SHAPES = ((2, 2), (3, 1), (1, 3), (4, 1), (1, 4))
RELATION_SAMPLE = 10
# (n, r, s) -> certified rank of the algebra's image on the tensor space.
SCHUR_WEYL_RANKS = {(2, 2, 1): 5, (3, 2, 2): 23, (4, 3, 1): 24}
# Known defect: at n = 2 and r+s = 4 the kernel certificate finds no
# rational function fitting the data and RankCertificationFailed is raised.
SCHUR_WEYL_DEFECTS = ((2, 2, 2), (2, 3, 1), (2, 1, 3))
SINGULAR_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
SINGULAR_PER_PASS = 4


def singular_fields(n):
    return ("qpow:%d" % n, "cyclo:4,rho=zeta^%d" % (n % 4),
            "cyclo:3,rho=zeta^%d" % (n % 3), "generic")


def dominant_weights(r, s):
    """Non-increasing weights of the mixed tensor space with n = r+s rows:
    +1 per left factor in a row, -1 per right factor."""
    n = r + s
    out = set()

    def walk(pos, wt):
        if pos == r + s:
            if all(wt[i] >= wt[i + 1] for i in range(n - 1)):
                out.add(tuple(wt))
            return
        step = 1 if pos < r else -1
        for row in range(n):
            wt[row] += step
            walk(pos + 1, wt)
            wt[row] -= step

    walk(0, [0] * n)
    return sorted(out, reverse=True)


def singular_argv(r, s, field, weight):
    return ("singular", "--r", str(r), "--s", str(s), "--field", field,
            "--weight", ",".join(str(w) for w in weight))


def singular_keys():
    """Every singular query the tensor_certify workload may draw."""
    out = []
    for r, s in SINGULAR_SHAPES:
        for field in singular_fields(r + s):
            for weight in dominant_weights(r, s):
                out.append(singular_argv(r, s, field, weight))
    return out


def query_mix_keys():
    return [(cmd, "--r", str(r), "--s", str(s), "--field", field)
            for cmd in CLI_COMMANDS for r, s in CLI_SHAPES
            for field in GRID_FIELDS]


# -- jobs and their checks ----------------------------------------------------

class Job:
    """One timed call.  ``run(wbq)`` returns the value ``check(value)``
    judges; ``defect`` marks a job expected to raise ``defect``."""

    __slots__ = ("kind", "label", "run", "check", "defect")

    def __init__(self, kind, label, run, check, defect=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check
        self.defect = defect


class Outcome:
    """A finished job: value or error, latency, and the verdict."""

    __slots__ = ("job", "value", "error", "start", "end", "ok",
                 "known_failure", "output_bytes")

    def __init__(self, job, value, error, start, end):
        self.job = job
        self.value = value
        self.error = error
        self.start = start
        self.end = end
        self.ok = False
        self.known_failure = False
        self.output_bytes = 0

    @property
    def seconds(self):
        return self.end - self.start

    def judge(self):
        """Set ``ok`` and ``known_failure``; a known defect that raises its
        documented error is correct behaviour for today's program but
        still a failed job."""
        job = self.job
        if self.error is not None:
            if job.defect is not None and \
                    type(self.error).__name__ == job.defect:
                self.ok = True
                self.known_failure = True
            return
        if job.kind in CLI_KINDS:
            self.output_bytes = len(self.value[1].encode("utf-8"))
        self.ok = bool(job.check(self.value))


def cli_call(wbq, argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = wbq.cli.main(list(argv))
    return code, out.getvalue()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def cli_job(kind, argv, golden):
    key = " ".join(argv)
    expected = golden[key]

    def check(value):
        code, text = value
        return [digest(text), code] == expected

    return Job(kind, key, lambda wbq: cli_call(wbq, argv), check)


def _zipf_pick(rng, ranked):
    """Draw from ``ranked`` with probability proportional to 1/rank."""
    weights = [1.0 / (k + 1) for k in range(len(ranked))]
    return rng.choices(ranked, weights)[0]


def _pass_rng(seed, index):
    return random.Random(seed * 1000003 + index)


class QueryMix:
    """Seeded stream of CLI queries over the bundled-table shapes.

    Key popularity is Zipf-skewed inside fixed cost strata: for every
    (command, shape) a pass asks for one q-power field and three
    root-of-unity fields, each drawn by popularity rank, so popular keys
    repeat and the rest appear once; it also asks for the generic field
    and, where that is cheap, a free-rho field.  The seed fixes the
    popularity ranking, the draws and the order; the strata keep the work
    per pass comparable across seeds.
    """

    name = "query_mix"
    pass_seconds = 15

    def __init__(self, seed):
        self.seed = seed
        self.golden = load_golden()["query_mix"]
        rng = random.Random(seed)
        self.ranking = {}
        for cmd in CLI_COMMANDS:
            for r, s in CLI_SHAPES:
                for cls, fields in (("qpow", QPOW_FIELDS),
                                    ("root", ROOT_FIELDS)):
                    ranked = list(fields)
                    rng.shuffle(ranked)
                    self.ranking[(cmd, r, s, cls)] = ranked

    def jobs(self, index):
        rng = _pass_rng(self.seed, index)
        argvs = [HOT_ARGV]
        for cmd in CLI_COMMANDS:
            for r, s in CLI_SHAPES:
                fields = [_zipf_pick(rng, self.ranking[(cmd, r, s, "qpow")])]
                fields += [_zipf_pick(rng, self.ranking[(cmd, r, s, "root")])
                           for _ in range(3)]
                fields.append("generic")
                if r + s <= 3 or cmd in ("gram", "semisimple"):
                    # The two free fields differ in cost by up to 4x; they
                    # take turns so that every two passes cost the same.
                    fields.append(FREE_FIELDS[index % 2])
                for field in fields:
                    argvs.append((cmd, "--r", str(r), "--s", str(s),
                                  "--field", field))
        rng.shuffle(argvs)
        return [cli_job(argv[0], argv, self.golden) for argv in argvs]

    def reset(self):
        pass


def _table_content(data):
    content = dict(data)
    content.pop("seed", None)
    return content


class TableBuild:
    """Cold write path: interpolated generic tables, saved and read back,
    and q-power tables computed directly in the tensor model."""

    name = "table_build"
    pass_seconds = 13

    def __init__(self, seed, workdir, wbq):
        self.seed = seed
        self.workdir = workdir
        self.engine = wbq.engine
        self._bundled = {}
        self._generic = {}

    def jobs(self, index):
        rng = _pass_rng(self.seed, index)
        out_dir = os.path.join(self.workdir, "tables-%d" % index)
        jobs = [self._build_job(r, s, out_dir) for r, s in BUILD_SHAPES]
        jobs += [self._direct_job(r, s, a) for r, s, a in DIRECT_TABLES]
        rng.shuffle(jobs)
        return jobs

    def _build_job(self, r, s, out_dir):
        seed = self.seed
        path = os.path.join(out_dir, "constants_%d_%d_generic.json" % (r, s))

        def run(wbq):
            table = wbq.engine.build_generic_table(r, s, seed=seed)
            wbq.engine.save_table(table, path)
            loaded = wbq.engine.load_table(path, r, s)
            return table, loaded, path

        return Job("build", "build %d %d seed %d" % (r, s, seed), run,
                   lambda value: self._check_build(r, s, value))

    def _direct_job(self, r, s, a):
        field = "qpow:%d" % a

        def run(wbq):
            return wbq.engine.direct_structure_constants(r, s, field)

        return Job("direct", "direct %d %d %s" % (r, s, field), run,
                   lambda value: self._check_direct(r, s, field, value))

    def _bundled_bytes(self, r, s):
        if (r, s) not in self._bundled:
            with open(self.engine.bundled_path(r, s), "rb") as handle:
                self._bundled[(r, s)] = handle.read()
        return self._bundled[(r, s)]

    def _check_build(self, r, s, value):
        """Same content as the bundled table apart from the seed, byte for
        byte at seed 0, and read back unchanged."""
        table, loaded, path = value
        with open(path, "rb") as handle:
            saved = handle.read()
        bundled = self._bundled_bytes(r, s)
        if _table_content(json.loads(saved)) != \
                _table_content(json.loads(bundled)):
            return False
        if self.seed == 0 and saved != bundled:
            return False
        return loaded.to_json_dict() == table.to_json_dict()

    def _check_direct(self, r, s, field, table):
        engine = self.engine
        if (r, s) not in self._generic:
            self._generic[(r, s)] = engine.load_table(
                engine.bundled_path(r, s), r, s)
        view = self._generic[(r, s)].specialize(field)
        size = len(table.basis)
        if size != math.factorial(r + s):
            return False
        return all(table.product(a, b) == view.product(a, b)
                   for a in range(size) for b in range(size))

    def reset(self):
        pass


class TensorCertify:
    """Mixed-tensor-space certificates: relation suites on sampled
    vectors, singular-space queries through the CLI, and Schur-Weyl ranks
    on distinct keys, including the known n = 2 defects."""

    name = "tensor_certify"
    pass_seconds = 26

    def __init__(self, seed, wbq):
        self.seed = seed
        self.repthy = wbq.repthy
        self.golden = load_golden()["singular"]
        rng = random.Random(seed)
        pool = singular_keys()
        rng.shuffle(pool)
        self.singular = pool

    def jobs(self, index):
        rng = _pass_rng(self.seed, index)
        jobs = []
        for r, s in RELATION_SHAPES:
            jobs.append(self._relation_job(r, s, rng.randrange(1 << 30)))
        start = index * SINGULAR_PER_PASS
        for k in range(SINGULAR_PER_PASS):
            argv = self.singular[(start + k) % len(self.singular)]
            jobs.append(cli_job("singular", argv, self.golden))
        for key in SCHUR_WEYL_RANKS:
            jobs.append(self._schur_weyl_job(key))
        for key in SCHUR_WEYL_DEFECTS:
            jobs.append(self._schur_weyl_job(key))
        rng.shuffle(jobs)
        return jobs

    @staticmethod
    def _relation_job(r, s, seed):
        def run(wbq):
            return wbq.repthy.relation_suite(r, s, sample=RELATION_SAMPLE,
                                             seed=seed)

        return Job("relations", "relations %d %d seed %d" % (r, s, seed),
                   run, lambda failures: failures == [])

    @staticmethod
    def _schur_weyl_job(key):
        n, r, s = key
        expected = SCHUR_WEYL_RANKS.get(key)
        defect = None if expected is not None else "RankCertificationFailed"

        def run(wbq):
            return wbq.repthy.schur_weyl_rank(n, r, s)

        def check(rank):
            if expected is not None:
                return rank == expected
            # A repaired defect must still give a rank in range.
            return 0 < rank <= math.factorial(r + s)

        return Job("schur_weyl", "schur_weyl %d %d %d" % key, run, check,
                   defect=defect)

    def reset(self):
        """Each pass asks for the Schur-Weyl ranks as distinct keys, so the
        rank memo filled by the previous pass is emptied."""
        memo = getattr(self.repthy, "_SW_MEMO", None)
        if memo is not None:
            memo.clear()


NAMES = ("query_mix", "table_build", "tensor_certify")


def setup(name, wbq):
    """The work a process does before its first job can start: for
    query_mix, loading the six bundled generic tables into the table memo."""
    if name == "query_mix":
        for r, s in CLI_SHAPES:
            wbq.engine.structure_constants(r, s)


def make(name, seed, workdir, wbq):
    if name == "query_mix":
        return QueryMix(seed)
    if name == "table_build":
        return TableBuild(seed, workdir, wbq)
    if name == "tensor_certify":
        return TensorCertify(seed, wbq)
    raise ValueError("unknown workload %r" % name)
