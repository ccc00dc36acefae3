#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

The first call configures and builds perfbench/ (Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build when unset; later
calls only re-check the build. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: 0 when every output check held, non-zero otherwise, and
non-zero without a result when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-deep", "train-long", "maxbatch", "serve-churn")


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target: str) -> Path:
    out = build_dir()
    cache = out / "CMakeCache.txt"
    # A build tree configured for another checkout cannot be reused.
    if cache.exists() and str(HERE) not in cache.read_text(errors="replace"):
        shutil.rmtree(out)
    if not cache.exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", target, "-j2"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / target


def main(argv: list) -> int:
    if argv == ["--test"]:
        try:
            binary = build("perfbench_test")
        except (subprocess.CalledProcessError, OSError) as e:
            print(f"run.py: build failed: {e}", file=sys.stderr)
            return 1
        return subprocess.run([str(binary)]).returncode

    args = dict(zip(argv[0::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds", "--trace"}:
        print(__doc__, file=sys.stderr)
        return 2
    if args["--workload"] not in WORKLOADS:
        print(f"run.py: unknown workload {args['--workload']!r}", file=sys.stderr)
        return 2
    try:
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    workdir = build_dir() / "run"
    return subprocess.run([str(binary), *argv, "--workdir", str(workdir)]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
