"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload once with --trace 1 and asserts that the layers each
one should exercise report calls and that the layers it should bypass
report none; checks that tracing reaches functions imported into other
modules and is removed cleanly; and checks that the benchmark refuses to
run, without a result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import tracing
import workloads

HERE = workloads.HERE
ROOT = os.path.dirname(HERE)

# workload -> (metrics that must be > 0, metrics that must be 0)
EXPECT = {
    "query_mix": (
        ("scalars.specialize.calls",
         "engine.SpecializedConstants.product.calls",
         "engine.StructureConstants.specialize.calls",
         "repthy.decomposition_matrix.calls", "repthy.gram_matrix.calls",
         "linalg.rref.calls", "scalars.to_text.calls",
         "engine.load_table.calls", "engine.load_table.bytes",
         "engine.structure_constants.calls", "cli.main.self_s",
         "cli.output_bytes", "engine.table_memo.entries"),
        ("engine.CoordinateSystem.build.calls", "linalg.lagrange_poly.calls",
         "engine.save_table.calls", "tensor.act_word.calls",
         "tensor.singular_space.calls", "repthy.schur_weyl_rank.calls",
         "repthy.relation_suite.calls")),
    "table_build": (
        ("engine.CoordinateSystem.build.calls", "linalg.lagrange_poly.calls",
         "linalg.invert_square.calls", "linalg.mat_mul.calls",
         "linalg.modp_rank_robust.calls", "tensor.act_word.calls",
         "tensor.act_letters.calls", "scalars.generic_from_terms.calls",
         "engine.save_table.calls", "engine.save_table.bytes",
         "engine.load_table.calls", "engine.build_generic_table.self_s",
         "engine.direct_structure_constants.self_s",
         "engine.StructureConstants.certify.self_s"),
        ("scalars.specialize.calls",
         "engine.SpecializedConstants.product.calls",
         "repthy.decomposition_matrix.calls", "repthy.gram_matrix.calls",
         "repthy.schur_weyl_rank.calls", "cli.output_bytes")),
    "tensor_certify": (
        ("tensor.act_word.calls", "tensor.singular_space.calls",
         "tensor.act_divided_power.calls", "linalg.modp_rank_robust.calls",
         "linalg.kernel_basis.calls", "repthy.relation_suite.calls",
         "repthy.schur_weyl_rank.calls", "repthy.schur_weyl_rank.failures",
         "cli.output_bytes"),
        ("engine.load_table.calls", "engine.structure_constants.calls",
         "engine.SpecializedConstants.product.calls",
         "engine.CoordinateSystem.build.calls", "linalg.lagrange_poly.calls",
         "repthy.decomposition_matrix.calls")),
}


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_traced_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    for name, (busy, idle) in EXPECT.items():
        proc = bench(ROOT, "--workload", name, "--seed", "5",
                     "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert result["correct"], name
        assert sorted(metrics) == sorted(declared), name
        for key in busy:
            assert metrics[key] > 0, (name, key, metrics[key])
        for key in idle:
            assert metrics[key] == 0, (name, key, metrics[key])
        if name == "tensor_certify":
            defects = len(workloads.SCHUR_WEYL_DEFECTS)
            assert metrics["repthy.schur_weyl_rank.failures"] == defects
        print("ok  traced %s: %d spans, overhead %.3f s"
              % (name, metrics["trace.spans"], metrics["trace.overhead_s"]))


def check_namespaces():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import wbq
    import wbq.cli  # noqa: F401  (the tracer wraps cli.main)
    original = wbq.tensor.act_word
    tracer = tracing.Tracer()
    tracer.install(wbq)
    try:
        assert wbq.tensor.act_word is not original
        assert wbq.engine.act_word is wbq.tensor.act_word
        assert wbq.tensor.kernel_basis is wbq.linalg.kernel_basis
        assert wbq.analyze is wbq.repthy.analyze
        tracer.job = 1
        wbq.schur_weyl_rank(3, 2, 1)
        tracer.job = None
        metrics = tracer.metrics()
        assert metrics["repthy.schur_weyl_rank.calls"] == 1
        assert metrics["tensor.act_word.calls"] > 0
        assert all(span[5] == 1 for span in tracer.spans)
    finally:
        tracer.uninstall()
    assert wbq.tensor.act_word is original
    assert wbq.engine.act_word is original
    print("ok  wrappers reach imported names and are removed")


def check_bare_directory():
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "--workload", "query_mix", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    print("ok  refuses to run without the sources")


def main():
    check_namespaces()
    check_bare_directory()
    check_traced_runs()


if __name__ == "__main__":
    main()
