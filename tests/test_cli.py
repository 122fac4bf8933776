"""Tests for the command line front end: exit codes, output formats,
determinism, and schema validity."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import jsonschema
import pytest

from wbq import cli, combinat, engine, repthy, scalars, tensor
from wbq.errors import OracleMismatch, RankTooSmall
from wbq.linalg import FieldContext
from wbq.scalars import FieldSpec


HERE = os.path.dirname(os.path.abspath(__file__))


def _golden():
    with open(os.path.join(HERE, "..", "perfbench", "golden.json")) as fh:
        return json.load(fh)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _schema_validator():
    path = os.path.join(HERE, "..", "schemas", "result.json")
    with open(path) as handle:
        schema = json.load(handle)
    jsonschema.Draft7Validator.check_schema(schema)
    return jsonschema.Draft7Validator(schema)


def test_usage_errors_exit_one_with_single_line_reason():
    cases = [
        ["decomp"],
        ["decomp", "--r", "1", "--s", "1", "--field", "bogus"],
        ["decomp", "--r", "1", "--s", "1", "--field", "cyclo:0"],
        ["decomp", "--r", "1", "--s", "1", "--field", "cyclo:-4"],
        ["decomp", "--r", "0", "--s", "1"],
        ["decomp", "--r", "x", "--s", "1"],
        ["decomp", "--r", "1", "--s", "1", "--jobs", "0"],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,x"],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,0,-1"],
        ["singular", "--r", "1", "--s", "1", "--weight", ""],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,-1",
         "--n", "0"],
        ["schur-weyl", "--r", "1", "--s", "1", "--n", "-1"],
        ["verify", "--only", "nonsense"],
        ["verify", "--r", "2"],
        ["blocks", "--r", "1", "--s", "1", "--output", "latex"],
        ["cache", "build", "--s", "1"],
        ["cache", "build", "--r", "1", "--s", "1", "--field", "qpow:2"],
        ["gram", "--r", "1", "--s", "1", "--label", "f=9,[9]|[9]"],
        ["nonsense"],
        # a flag the command does not read is rejected, not ignored
        ["decomp", "--r", "1", "--s", "1", "--n", "7"],
        ["gram", "--r", "1", "--s", "1", "--n", "2"],
        ["blocks", "--r", "1", "--s", "1", "--n", "2"],
        ["semisimple", "--r", "1", "--s", "1", "--n", "2"],
        ["cache", "list", "--n", "2"],
        ["schur-weyl", "--r", "1", "--s", "1", "--field", "cyclo:3"],
        ["schur-weyl", "--r", "1", "--s", "1", "--seed", "1"],
        ["schur-weyl", "--r", "1", "--s", "1", "--cache-dir", "x"],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,-1",
         "--seed", "1"],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,-1",
         "--cache-dir", "x"],
        ["verify", "--field", "generic"],
        ["verify", "--n", "2"],
        ["verify", "--seed", "1"],
        ["verify", "--cache-dir", "x"],
        # queries read tables and take no build seed; only the generic
        # table is cached
        ["decomp", "--r", "1", "--s", "1", "--seed", "1"],
        ["gram", "--r", "1", "--s", "1", "--seed", "1"],
        ["blocks", "--r", "1", "--s", "1", "--seed", "1"],
        ["semisimple", "--r", "1", "--s", "1", "--seed", "1"],
        ["cache", "build", "--r", "1", "--s", "1", "--field", "generic"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 1, argv
        assert len(err.strip().splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, argv
    # a rejected format names every format the command takes
    code, out, err = run_cli(["verify", "--output", "latex"])
    assert code == 1
    assert "table" in err and "json" in err, err


def test_every_command_help_names_exactly_its_flags():
    for command, (_, _, _, names) in cli._COMMANDS.items():
        code, out, err = run_cli([command, "--help"])
        assert code == 0 and err == "", command
        usage = out.split("\n\n")[0]
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage))
        want = {name.rstrip("?") for name in names if name.startswith("--")}
        assert flags == want | {"--output", "--out"}, (command, usage)


def test_gram_rejects_an_unknown_label_before_resolving_a_table(
        monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "structure_constants",
                        lambda *args, **kw: calls.append(args))
    code, out, err = run_cli(["gram", "--r", "1", "--s", "1",
                              "--label", "f=9,[9]|[9]"])
    assert code == 1 and out == ""
    assert len(err.strip().splitlines()) == 1, err
    assert calls == []


def test_exit_status_crosses_the_process_boundary(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"),
               WBQ_CACHE_DIR=str(tmp_path))
    key = "blocks --r 1 --s 1 --field generic"
    run = subprocess.run([sys.executable, "-m", "wbq.cli"] + key.split(" "),
                         env=env, capture_output=True, timeout=300)
    assert [hashlib.sha256(run.stdout).hexdigest(),
            run.returncode] == _golden()["query_mix"][key]
    run = subprocess.run([sys.executable, "-m", "wbq.cli", "decomp",
                          "--r", "0", "--s", "1"],
                         env=env, capture_output=True, timeout=300)
    assert run.returncode == 1 and run.stdout == b""
    assert len(run.stderr.decode().strip().splitlines()) == 1, run.stderr


def test_decomp_b11_at_rho_one_quantum_characteristic_two():
    code, out, err = run_cli(
        ["decomp", "--r", "1", "--s", "1", "--field", "cyclo:4,rho=zeta^0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["f=1,[]|[]", "f=0,[1]|[1]"]
    assert doc["decomposition"]["columns"] == ["f=0,[1]|[1]"]
    assert doc["decomposition"]["entries"] == [[1], [1]]
    assert doc["gram_ranks"] == [0, 1]
    assert len(doc["blocks"]) == 1
    assert doc["oracles"]["semisimple"] == {
        "computed": False, "predicted": False}


def test_decomp_generic_is_the_identity_matrix():
    code, out, err = run_cli(
        ["decomp", "--r", "2", "--s", "1", "--field", "generic"])
    assert code == 0
    doc = json.loads(out)
    entries = doc["decomposition"]["entries"]
    assert entries == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert all(len(block) == 1 for block in doc["blocks"])
    assert doc["oracles"]["semisimple"] == {
        "computed": True, "predicted": True}


def test_decomp_qpow_zero_matches_the_root_of_unity_matrix():
    code_a, out_a, _ = run_cli(
        ["decomp", "--r", "1", "--s", "1", "--field", "qpow:0"])
    code_b, out_b, _ = run_cli(
        ["decomp", "--r", "1", "--s", "1", "--field", "cyclo:4,rho=zeta^0"])
    assert code_a == 0 and code_b == 0
    doc_a, doc_b = json.loads(out_a), json.loads(out_b)
    assert doc_a["decomposition"] == doc_b["decomposition"]
    assert doc_a["oracles"]["einfty"] is True


def test_json_output_is_byte_identical_across_runs():
    argv = ["decomp", "--r", "2", "--s", "2", "--field", "cyclo:3,rho=free"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first[0] == 0
    assert first[1] == second[1]
    assert first[1].encode("utf-8") == second[1].encode("utf-8")


def test_verify_output_independent_of_pool_size():
    argv = ["verify", "--only", "semisimple", "--r", "1", "--s", "1"]
    lone = run_cli(argv)
    assert lone[0] == 0
    assert lone[1] == "PASS semisimple:r1s1\n"
    # the default format can also be named
    assert run_cli(argv + ["--output", "table"]) == lone


def test_decomp_latex_and_csv_formats():
    base = ["decomp", "--r", "1", "--s", "1", "--field", "generic"]
    code, out, _ = run_cli(base + ["--output", "latex"])
    assert code == 0
    assert out.startswith("% decomposition matrix")
    assert out.count(r"\\") == 3  # header plus one line per label
    code, out, _ = run_cli(base + ["--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("label,gram_rank")
    assert len(lines) == 3


def test_gram_command_reports_the_contraction_scalar():
    code, out, _ = run_cli(["gram", "--r", "1", "--s", "1",
                            "--field", "generic"])
    assert code == 0
    doc = json.loads(out)
    by_label = {row["label"]: row for row in doc["labels"]}
    assert set(by_label) == {"f=1,[]|[]", "f=0,[1]|[1]"}
    ctx = FieldContext(FieldSpec.generic())
    q = ctx.from_monomial(1, 1)
    qinv = ctx.from_monomial(1, -1)
    rho = ctx.from_monomial(1, 0, 1)
    rhoinv = ctx.from_monomial(1, 0, -1)
    delta = (rho - rhoinv) / (q - qinv)
    assert by_label["f=1,[]|[]"]["matrix"] == [[scalars.to_text(delta)]]
    assert by_label["f=1,[]|[]"]["rank"] == 1
    assert by_label["f=0,[1]|[1]"]["matrix"] == [["1"]]
    code, out, _ = run_cli(["gram", "--r", "1", "--s", "1",
                            "--field", "generic", "--label", "f=1,[]|[]",
                            "--output", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "label,dimension,rank"
    assert len(lines) == 2 and lines[1].endswith(",1,1")


def test_singular_command_matches_the_library():
    argv = ["singular", "--r", "2", "--s", "1", "--weight", "1,1,-1",
            "--field", "qpow:3"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    spec = FieldSpec.qpower(3)
    space = tensor.singular_space((1, 1, -1), 3, 2, 1, spec=spec)
    assert doc["dimension"] == len(space)
    expected = []
    for vec in space:
        expected.append([
            {"index": list(idx), "coefficient": scalars.to_text(value)}
            for idx, value in sorted(vec.items())])
    assert doc["basis"] == expected


def test_a_weight_starting_with_a_minus_sign_needs_no_equals_sign():
    for argv, weight in ((["--r", "1", "--s", "2"], "-1,0,0"),
                         (["--r", "1", "--s", "3", "--n", "2"], "-1,-1")):
        spaced = run_cli(["singular"] + argv + ["--weight", weight])
        joined = run_cli(["singular"] + argv + ["--weight=" + weight])
        assert spaced[0] == joined[0] == 0, spaced[2]
        assert spaced[1] == joined[1]
    assert json.loads(spaced[1])["dimension"] > 0


def test_queries_builds_and_certificates_import_neither_numpy_nor_sympy():
    # every modular rank and every field value runs on Python ints: the
    # four query commands on each shape and grid field, a generic singular
    # query that divides by q^2 + 1, generic and direct table builds,
    # certify() and a Schur-Weyl rank certificate leave numpy and sympy
    # unimported, so the package runs where neither is installed
    script = "\n".join([
        "import contextlib, io, sys",
        "from wbq import cli, engine, repthy",
        "shapes = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]",
        "codes = set()",
        "for field in cli.grid_fields():",
        "    for command in ('decomp', 'gram', 'blocks', 'semisimple'):",
        "        for r, s in shapes:",
        "            with contextlib.redirect_stdout(io.StringIO()):",
        "                codes.add(cli.main([command, '--r', str(r),",
        "                                    '--s', str(s),",
        "                                    '--field', field.to_string()]))",
        "assert codes == {0}, codes",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert cli.main(['singular', '--r', '3', '--s', '1', '--field',",
        "                     'generic', '--weight', '1,1,0,0']) == 0",
        "engine.build_generic_table(1, 1).certify()",
        "engine.direct_structure_constants(1, 1, 'qpow:2')",
        "assert repthy.schur_weyl_rank(3, 2, 2) == 23",
        "assert 'numpy' not in sys.modules",
        "assert 'sympy' not in sys.modules",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, "..", "src"))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()


def test_schur_weyl_command_flags_equality_and_deficiency():
    code, out, _ = run_cli(["schur-weyl", "--n", "2", "--r", "1", "--s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2 and doc["order"] == 2 and doc["equal"] is True
    code, out, _ = run_cli(["schur-weyl", "--n", "1", "--r", "1", "--s", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 1 and doc["order"] == 2 and doc["equal"] is False


def test_schur_weyl_command_reports_the_n2_certification_defect():
    # a known defect: for n = 2 and r + s = 4 no small rational function
    # fits the interpolated kernel, so the rank is not certified
    code, out, err = run_cli(["schur-weyl", "--n", "2", "--r", "2", "--s", "2"])
    assert code == 1
    assert out == ""
    assert err == ("RankCertificationFailed: no small rational function "
                   "fits the data\n")


def test_a_query_without_a_table_refuses_at_once(tmp_path, monkeypatch):
    def build(*args, **kw):
        raise AssertionError("a query started a table build")

    monkeypatch.setattr(engine, "build_generic_table", build)
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    for command in ("decomp", "gram", "blocks", "semisimple"):
        code, out, err = run_cli([command, "--r", "3", "--s", "2"])
        assert code == 1 and out == "", command
        assert len(err.strip().splitlines()) == 1, (command, err)
        assert ("`wbq cache build --r 3 --s 2 --cache-dir %s`" % tmp_path
                in err), err
        assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_an_unreadable_table_file_exits_one_with_one_line(
        tmp_path, monkeypatch):
    with open(engine.bundled_path(1, 1)) as handle:
        text = handle.read()
    not_generic = json.loads(text)
    not_generic["mode"] = "qpow:3"
    with open(engine.bundled_path(1, 2)) as handle:
        other_shape = handle.read()
    path = engine.cache_path(1, 1, str(tmp_path))
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    for content in (text[:100], other_shape, json.dumps(not_generic), "[]"):
        with open(path, "w") as handle:
            handle.write(content)
        monkeypatch.setattr(engine, "_TABLE_MEMO", {})
        code, out, err = run_cli(["blocks", "--r", "1", "--s", "1"])
        assert code == 1 and out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert path in err and "`wbq cache clear`" in err, err
        assert "Traceback" not in err
        with pytest.raises(OSError) as info:
            engine.generic_table(1, 1)
        assert info.value.__cause__ is not None


def _corrupt_b11(edit):
    """The bundled (1, 1) table as JSON text, after ``edit`` changed it."""
    with open(engine.bundled_path(1, 1)) as handle:
        data = json.load(handle)
    edit(data)
    return json.dumps(data)


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


# Each file loads as a table today's writer could not have written.  The
# entry "products" "0,0" "0" is q (rho^2 - 1) / (rho (q^2 - 1)).
CORRUPT_B11 = {
    "empty denominator": _set(["one", "1", 1], []),
    "zero coefficient": _set(["one", "1", 0, 0, 2], "0"),
    "coefficient that does not parse": _set(["one", "1", 0, 0, 2], "one"),
    "coefficient of zero denominator": _set(["one", "1", 0, 0, 2], "1/0"),
    "coefficient that is a number": _set(["one", "1", 0, 0, 2], 1),
    "exponent that is a string": _set(["one", "1", 0, 0, 0], "0"),
    "exponent that is a float": _set(["one", "1", 0, 0, 0], 0.5),
    "denominator with rho": _set(["products", "0,0", "0", 1],
                                 [[0, 0, "1"], [0, 2, "1"]]),
    "denominator with q + 1": _set(["products", "0,0", "0", 1],
                                   [[0, 0, "1"], [1, 0, "1"]]),
    "vector index out of range": _set(["one", "2"],
                                      [[[0, 0, "1"]], [[0, 0, "1"]]]),
    "product key out of range": _set(["products", "0,2"],
                                     {"0": [[[0, 0, "1"]], [[0, 0, "1"]]]}),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_B11))
def test_a_corrupt_table_file_is_refused_at_load(case, tmp_path, monkeypatch):
    path = engine.cache_path(1, 1, str(tmp_path))
    with open(path, "w") as handle:
        handle.write(_corrupt_b11(CORRUPT_B11[case]))
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    code, out, err = run_cli(["blocks", "--r", "1", "--s", "1"])
    assert code == 1 and out == "", case
    assert len(err.strip().splitlines()) == 1, (case, err)
    assert path in err and "`wbq cache clear`" in err, (case, err)
    assert "Traceback" not in err
    with pytest.raises((ValueError, TypeError)):
        engine.load_table(path, 1, 1)


def test_a_non_generic_query_decodes_no_generic_value(tmp_path, monkeypatch):
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    calls = {"generic": 0, "load": 0}
    normal = scalars._qrho_normal
    generic_from_terms = scalars.generic_from_terms

    def counted_normal(*args):
        calls["generic"] += 1
        return normal(*args)

    def counted_load(*args):
        calls["load"] += 1
        return generic_from_terms(*args)

    monkeypatch.setattr(scalars, "_qrho_normal", counted_normal)
    monkeypatch.setattr(scalars, "generic_from_terms", counted_load)
    code, out, err = run_cli(["decomp", "--r", "2", "--s", "2",
                              "--field", "qpow:2"])
    assert code == 0 and err == ""
    # the (2, 2) table was loaded in this call, and no generic value was
    # normalised: no load and no generic arithmetic
    assert calls == {"generic": 0, "load": 1023}


def test_decomp_on_a_semisimple_field_specialises_nothing(tmp_path,
                                                          monkeypatch):
    # the residues of the generic tables answer the query and its blocks1
    # and einfty sub-decompositions
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(engine, "_TABLE_MEMO", {})
    calls = {"specialize": 0, "generic": 0}
    fields = []
    specialize, normal = scalars.specialize, scalars._qrho_normal
    decomposition = repthy.decomposition_matrix

    def counted_specialize(*args):
        calls["specialize"] += 1
        return specialize(*args)

    def counted_normal(*args):
        calls["generic"] += 1
        return normal(*args)

    def recorded(r, s, field=None, **kw):
        fields.append((r, s, field.to_string()))
        return decomposition(r, s, field=field, **kw)

    monkeypatch.setattr(scalars, "specialize", counted_specialize)
    monkeypatch.setattr(scalars, "_qrho_normal", counted_normal)
    monkeypatch.setattr(repthy, "decomposition_matrix", recorded)
    key = "decomp --r 2 --s 2 --field qpow:4"
    code, out, err = run_cli(key.split(" "))
    assert err == ""
    assert [hashlib.sha256(out.encode()).hexdigest(),
            code] == _golden()["query_mix"][key]
    assert fields == [(2, 2, "qpow:4"), (1, 1, "qpow:4"),
                      (2, 2, "cyclo:7,rho=zeta^4"),
                      (2, 2, "cyclo:11,rho=zeta^4")]
    assert calls == {"specialize": 0, "generic": 0}


def test_an_asymmetric_generic_gram_form_is_refused_on_a_semisimple_field(
        monkeypatch, asymmetric_table):
    label = next(label for label in combinat.enumerate_labels(2, 1)
                 if engine.cell_layout(2, 1)[label][1] > 1)
    table = asymmetric_table(2, 1, label)
    monkeypatch.setattr(engine, "_TABLE_MEMO",
                        {(2, 1, engine.cache_path(2, 1)): table})
    calls = []
    specialize = scalars.specialize
    monkeypatch.setattr(scalars, "specialize",
                        lambda *args: calls.append(args) or specialize(*args))
    assert repthy.predicted_semisimple(2, 1, FieldSpec.qpower(4))
    for command in ("decomp", "blocks", "semisimple"):
        code, out, err = run_cli([command, "--r", "2", "--s", "1",
                                  "--field", "qpow:4"])
        assert (code, out) == (cli.EXIT_MISMATCH, ""), command
        assert err == ("OracleMismatch: Gram matrix is not symmetric at %s\n"
                       % repthy.label_text(label)), command
    # the generic entries were checked: nothing was specialised
    assert calls == []


def test_cache_build_list_clear_roundtrip():
    tmp = tempfile.mkdtemp(prefix="wbq-cache-")
    base = ["--cache-dir", tmp]
    code, out, err = run_cli(["cache", "build", "--r", "1", "--s", "1"]
                             + base)
    assert code == 0
    doc = json.loads(out)
    assert doc["existed"] is False and doc["bytes"] > 0
    first_bytes = doc["bytes"]
    code, out, _ = run_cli(["cache", "build", "--r", "1", "--s", "1"] + base)
    assert code == 0
    doc = json.loads(out)
    assert doc["existed"] is True and doc["bytes"] == first_bytes
    code, out, _ = run_cli(["cache", "list"] + base)
    assert code == 0
    doc = json.loads(out)
    assert [f["name"] for f in doc["files"]] == ["constants_1_1_generic.json"]
    code, out, _ = run_cli(["cache", "clear"] + base)
    assert code == 0
    assert json.loads(out)["removed"] == ["constants_1_1_generic.json"]
    code, out, _ = run_cli(["cache", "list"] + base)
    assert json.loads(out)["files"] == []


def test_cache_build_builds_the_table_at_the_given_seed():
    # a bundled shape is built, not copied: the seed lands in the file, and
    # at seed 0 the build reproduces the bundled bytes
    with open(engine.bundled_path(1, 1)) as handle:
        bundled = handle.read()
    for seed in (3, 0):
        tmp = tempfile.mkdtemp(prefix="wbq-build-")
        code, out, _ = run_cli(["cache", "build", "--r", "1", "--s", "1",
                                "--seed", str(seed), "--cache-dir", tmp])
        assert code == 0
        doc = json.loads(out)
        assert doc["existed"] is False
        with open(doc["path"]) as handle:
            built = handle.read()
        if seed == 0:
            assert built == bundled
        else:
            got, want = json.loads(built), json.loads(bundled)
            assert got.pop("seed") == seed and want.pop("seed") == 0
            assert got == want


def test_cache_dir_defaults_to_the_environment_variable():
    tmp = tempfile.mkdtemp(prefix="wbq-env-")
    previous = os.environ.get("WBQ_CACHE_DIR")
    os.environ["WBQ_CACHE_DIR"] = tmp
    try:
        code, out, _ = run_cli(["cache", "list"])
        assert code == 0
        assert json.loads(out)["cache_dir"] == tmp
    finally:
        if previous is None:
            del os.environ["WBQ_CACHE_DIR"]
        else:
            os.environ["WBQ_CACHE_DIR"] = previous


def test_out_flag_writes_the_file_and_keeps_stdout_clean():
    tmp = tempfile.mkdtemp(prefix="wbq-out-")
    target = os.path.join(tmp, "result.json")
    code, out, _ = run_cli(["blocks", "--r", "1", "--s", "1",
                            "--field", "generic", "--out", target])
    assert code == 0
    assert out == ""
    with open(target) as handle:
        doc = json.load(handle)
    assert doc["kind"] == "blocks"
    assert doc["blocks"] == [["f=1,[]|[]"], ["f=0,[1]|[1]"]]


def test_a_cyclotomic_field_takes_at_most_one_option():
    # a second option is refused, not read over the first
    for field in ("cyclo:4,rho=zeta^1,rho=free", "cyclo:4,rho=free,rho=zeta^1",
                  "cyclo:4,rho=zeta^1,rho=zeta^1"):
        code, out, err = run_cli(["semisimple", "--r", "1", "--s", "1",
                                  "--field", field])
        assert code == cli.EXIT_USAGE, field
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert "at most one option may follow cyclo:m" in err
    code, out, _ = run_cli(["semisimple", "--r", "1", "--s", "1",
                            "--field", "cyclo:4,rho=zeta^1"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["field"] == "cyclo:4,rho=zeta^1"


def test_verify_default_grid_passes():
    code, out, err = run_cli(["verify"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 18  # six suites on the three grid shapes
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_semisimple_runs_each_distinct_grid_field_once(monkeypatch):
    # the 24 (e, rho) pairs of the grid give 17 distinct fields, as
    # rho = zeta^(a mod m) repeats some on cyclo:m
    assert len(cli.grid_fields()) == len(set(cli.grid_fields())) == 17
    original = repthy.semisimplicity
    calls = []

    def counted(r, s, field=None, **kw):
        calls.append((r, s, field))
        return original(r, s, field=field, **kw)

    monkeypatch.setattr(repthy, "semisimplicity", counted)
    code, out, _ = run_cli(["verify", "--only", "semisimple"])
    assert code == 0
    assert out == "".join("PASS semisimple:r%ds%d\n" % shape
                          for shape in ((1, 1), (1, 2), (2, 1)))
    for shape in ((1, 1), (1, 2), (2, 1)):
        fields = [field for r, s, field in calls if (r, s) == shape]
        assert len(fields) == len(set(fields)) == 17, shape


def test_verify_reports_failures_with_exit_two():
    original = repthy.relation_suite
    repthy.relation_suite = lambda r, s, **kw: ["g1_quadratic"]
    try:
        code, out, err = run_cli(
            ["verify", "--only", "relations", "--r", "1", "--s", "1"])
    finally:
        repthy.relation_suite = original
    assert code == 2
    assert out == "FAIL relations:r1s1  (g1_quadratic)\n"
    assert err.strip() == "failed: relations:r1s1"


def test_verify_without_a_table_exits_before_any_suite_runs(
        monkeypatch, tmp_path):
    # (3, 2) has no bundled table; the suites that read no table must not
    # start before the missing one is reported
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))

    def explode(*args, **kw):
        raise AssertionError("a suite ran before the table was resolved")

    for name in ("relation_suite", "schur_weyl_rank",
                 "singular_dimension_check"):
        monkeypatch.setattr(repthy, name, explode)
    code, out, err = run_cli(["verify", "--r", "3", "--s", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error: no table for (3, 2) in %s" % tmp_path)
    assert err.count("\n") == 1


def test_verify_a_suite_without_a_table_needs_none(monkeypatch, tmp_path):
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    code, out, err = run_cli(["verify", "--r", "3", "--s", "2",
                              "--only", "relations"])
    assert (code, out, err) == (0, "PASS relations:r3s2\n", "")


def test_expected_errors_surface_by_name_without_stack_traces():
    original = repthy.analyze

    def explode(*args, **kw):
        raise RankTooSmall("deliberate failure for the error path")

    repthy.analyze = explode
    try:
        code, out, err = run_cli(["decomp", "--r", "1", "--s", "1"])
    finally:
        repthy.analyze = original
    assert code == 1
    assert err.startswith("RankTooSmall:")
    assert "Traceback" not in err

    def mismatch(*args, **kw):
        raise OracleMismatch("deliberate mismatch for the error path")

    repthy.analyze = mismatch
    try:
        code, out, err = run_cli(["decomp", "--r", "1", "--s", "1"])
    finally:
        repthy.analyze = original
    assert code == 2
    assert err.startswith("OracleMismatch:")
    assert "Traceback" not in err


def test_every_json_output_validates_against_the_shipped_schema():
    validator = _schema_validator()
    tmp = tempfile.mkdtemp(prefix="wbq-schema-")
    runs = [
        ["decomp", "--r", "1", "--s", "1", "--field", "cyclo:4,rho=zeta^0"],
        ["decomp", "--r", "2", "--s", "1", "--field", "generic"],
        ["gram", "--r", "1", "--s", "2", "--field", "qpow:3"],
        ["blocks", "--r", "2", "--s", "1", "--field", "cyclo:3,rho=free"],
        ["semisimple", "--r", "1", "--s", "1", "--field", "generic"],
        ["singular", "--r", "1", "--s", "1", "--weight", "1,-1",
         "--field", "qpow:2"],
        ["schur-weyl", "--n", "2", "--r", "1", "--s", "1"],
        ["verify", "--only", "schur-weyl", "--r", "1", "--s", "1",
         "--output", "json"],
        ["cache", "build", "--r", "1", "--s", "1", "--cache-dir", tmp],
        ["cache", "list", "--cache-dir", tmp],
        ["cache", "clear", "--cache-dir", tmp],
    ]
    for argv in runs:
        code, out, err = run_cli(argv)
        assert code == 0, (argv, err)
        doc = json.loads(out)
        problems = [e.message for e in validator.iter_errors(doc)]
        assert not problems, (argv, problems[:3])


def test_label_text_round_trips_through_the_schema_pattern():
    validator = _schema_validator()
    import re
    pattern = validator.schema["definitions"]["label"]["pattern"]
    for text in ("f=0,[1]|[1]", "f=2,[]|[]", "f=1,[2,1]|[1,1,1]"):
        assert re.match(pattern, text), text
    for text in ("f=,[1]|[1]", "f=0,[1]", "f=0,(1)|(1)", "0,[1]|[1]"):
        assert not re.match(pattern, text), text


BUNDLED_SHAPES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]


def test_decomp_passes_the_einfty_oracle_off_the_grid():
    # rho = q^a for a in [-12, 16] on every bundled shape: the roots of
    # unity compared with are of prime order above |a| + r + s - 2, so they
    # clash only where q^a does; on the grid they stay 7 and 11
    failed = []
    for r, s in BUNDLED_SHAPES:
        for a in cli.EINFTY_EXPONENTS:
            if abs(a) <= 4:
                assert repthy._einfty_orders(r, s, a) == [7, 11]
            code, _, err = run_cli(["decomp", "--r", str(r), "--s", str(s),
                                    "--field", "qpow:%d" % a])
            if code:
                failed.append((r, s, a, code, err))
    assert len(cli.EINFTY_EXPONENTS) * len(BUNDLED_SHAPES) == 174
    assert not failed, failed[:5]
    assert repthy._einfty_orders(2, 2, 7) == [11, 13]


def test_golden_outputs_replay_byte_for_byte(tmp_path, monkeypatch):
    # every recorded CLI key of the benchmark, replayed in-process on the
    # bundled tables only
    golden = _golden()
    monkeypatch.setenv("WBQ_CACHE_DIR", str(tmp_path))
    keys = [(key, want) for section in ("query_mix", "singular")
            for key, want in golden[section].items()]
    assert len(keys) == 504
    mismatched = []
    for key, want in keys:
        code, out, _ = run_cli(key.split(" "))
        if [hashlib.sha256(out.encode("utf-8")).hexdigest(), code] != want:
            mismatched.append(key)
    assert mismatched == []
