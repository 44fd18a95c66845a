#!/usr/bin/env python3
"""Build tahoe_perf from the repository sources, then run it.

    python3 bench/perf/run.py --workload paper2t --seed 1 --seconds 20 --trace 0
    python3 bench/perf/run.py --check            # all four workloads
    python3 bench/perf/run.py --compare parent.json change.json

bench/perf is configured as a standalone CMake project (RelWithDebInfo, the
repository's default build type, warnings not fatal: a benchmark measures, it
does not lint) in $CARGO_TARGET_DIR, default .bench_build, resolved against
the repository root; only the tahoe_perf target is built.
Build output goes to stderr, so the harness's last stdout line stays its
result. The process then becomes the harness (exec), forwarding every
argument, so nothing outlives it.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def build(build_dir):
    """Configure (first time) and build tahoe_perf; returns the binary."""
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DTAHOE_WERROR=OFF"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "tahoe_perf",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: '{' '.join(cmd)}' failed ({result.returncode})")
    return build_dir / "tahoe_perf"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no sources under {ROOT / 'src'}; tahoe_perf builds "
                 "from the repository it sits in")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    binary = build(build_dir)
    sys.stdout.flush()
    os.execv(binary, [str(binary), *sys.argv[1:]])


if __name__ == "__main__":
    main()
