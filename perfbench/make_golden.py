"""Record the reference outputs the benchmark checks its CLI jobs against.

For every query_mix key (6 shapes x 17 grid fields x 4 commands) and every
singular query tensor_certify may draw, this stores the sha256 of the
CLI's standard output and its exit code in golden.json.  Run it from the
repository root against a known-good tree:

    python3 perfbench/make_golden.py
"""

import json
import os
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out, prefix="golden-") as cache:
        # Only the bundled tables, never a user cache.
        os.environ["WBQ_CACHE_DIR"] = cache
        import wbq
        import wbq.cli  # not imported by the package itself
        golden = {}
        for section, keys in (("query_mix", workloads.query_mix_keys()),
                              ("singular", workloads.singular_keys())):
            table = {}
            for argv in keys:
                code, text = workloads.cli_call(wbq, argv)
                table[" ".join(argv)] = [workloads.digest(text), code]
                sys.stderr.write("%s -> %d\n" % (" ".join(argv), code))
            golden[section] = table
    with open(workloads.GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d query_mix and %d singular entries to %s"
          % (len(golden["query_mix"]), len(golden["singular"]),
             os.path.relpath(workloads.GOLDEN_PATH, ROOT)))


if __name__ == "__main__":
    main()
