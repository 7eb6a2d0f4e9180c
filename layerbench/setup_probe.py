"""Time one fresh-interpreter set-up: ``import repro`` plus model construction.

Run by ``layerbench/run.py`` in a child interpreter, several times per
benchmark run.  Prints one JSON line: ``import_s`` (importing ``repro``
and the modules the workload's user imports) and ``build_s`` (building
the model, up to the first run call).
"""

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--scratch", required=True,
                        help="directory for files the build writes")
    args = parser.parse_args()
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from layerbench.workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    import_began = time.perf_counter()
    for module in workload_cls.modules:
        importlib.import_module(module)
    imported = time.perf_counter()
    scratch = Path(tempfile.mkdtemp(prefix="setup-", dir=args.scratch))
    try:
        workload = workload_cls(args.size, scratch=scratch)
        built = time.perf_counter()
        workload.build(args.seed)
        done = time.perf_counter()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # Interpreter start-up and this file's own imports are not timed.
    print(json.dumps({"import_s": imported - import_began,
                      "build_s": done - built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
