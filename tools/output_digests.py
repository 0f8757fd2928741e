"""sha256 of every file one pass of a CLI benchmark workload reads or writes.

Run from the root of a spaceform checkout:

    python3 tools/output_digests.py --workload cli-small --seed 1

Builds the workload's inputs for the seed with ``bench/workloads.py``,
runs its CLI jobs once, in order, and prints one ``<sha256>  <path>``
line per file under the work directory, inputs included, sorted by path.
The work directory is a fresh temporary one and every path in the inputs
is relative to it, so two checkouts print the same lines exactly when the
bytes agree: a refactor meant to keep the CLI's outputs is checked with

    diff <(python3 tools/output_digests.py ...) <(cd ../other && python3 tools/output_digests.py ...)

Each job's exit code goes to standard error; the script exits 1 when a
job exited nonzero.
"""

import os

# one BLAS thread, as the benchmark pins it, so products round the same way
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from workloads import WORKLOADS, out_dir  # noqa: E402

CLI_WORKLOADS = ("cli-small", "cli-sphere-401")


def file_digests(top: str) -> list:
    """(relative path, sha256) of every file under ``top``, sorted by path."""
    out = []
    for base, _, names in os.walk(top):
        for name in names:
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as f:
                while chunk := f.read(1 << 22):
                    h.update(chunk)
            out.append((os.path.relpath(path, top), h.hexdigest()))
    return sorted(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=CLI_WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    cwd = os.getcwd()
    work = tempfile.mkdtemp(prefix="spaceform-digests-")
    try:
        os.chdir(work)
        failed = 0
        for job in WORKLOADS[args.workload](args.seed, "."):
            with contextlib.redirect_stdout(sys.stderr):
                code = job.run(out_dir(".", job.name))
            print(f"exit {code} {job.name}", file=sys.stderr)
            failed |= code != 0
        for path, digest in file_digests("."):
            print(f"{digest}  {path}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
