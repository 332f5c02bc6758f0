"""Set up one workload in a fresh process and print ``ready``.

The parent times each of these processes from its start to that line: the
interpreter start, the imports, and generating and writing the inputs with
``spdtraj simulate``.  Run as

    python3 perfbench/prepare.py --workload exp2_align --seed 0 --data DIR
"""
import argparse
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

from workloads import BLAS_ENV, NAMES, SIMULATE, import_cli

os.environ.update(BLAS_ENV)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data", type=Path, required=True)
    args = ap.parse_args()
    cli = import_cli()
    with redirect_stdout(sys.stderr):
        rc = cli.main(SIMULATE[args.workload](args.seed, args.data))
    if rc == 0:
        print("ready", flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
