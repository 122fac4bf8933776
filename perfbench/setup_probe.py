"""One set-up in a fresh interpreter: import wbq, do the workload's set-up
and report, as one JSON line, the clock reading when this script started
and the reference seconds (see speed.py) from then until ready.

    python3 perfbench/setup_probe.py <workload>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402


def main():
    with speed.Speedometer() as meter:
        sys.path.insert(0, os.path.join(os.path.dirname(workloads.HERE),
                                        "src"))
        import wbq
        import wbq.cli  # the entry point of the CLI jobs
        workloads.setup(sys.argv[1], wbq)
        ready = time.perf_counter()
    sys.stdout.write(json.dumps({"start": START,
                                 "setup": meter.normalized(START, ready)}))
    sys.stdout.write("\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
