#!/usr/bin/env bash
# Full CI pipeline for mellowsim, runnable locally or from the GitHub
# Actions workflow (.github/workflows/ci.yml):
#
#   1. configure + build the asan-ubsan preset (ASan + UBSan)
#   2. run the whole test suite under that instrumented build (the
#      full-system tests and the golden gate audit with the runtime
#      invariant checkers on, as in every preset)
#   3. run the determinism audit on a representative configuration,
#      also with the invariant checkers on
#   4. run the lint passes: mellow_lint.py, mellow-configcheck over
#      the shipped device configs, and mellow-analyze (always; the
#      analyzer falls back to its textual backend when libclang is
#      absent) and clang-tidy (skipped gracefully when not installed)
#
# Any step failing fails the pipeline.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="${CI_JOBS:-$(nproc 2>/dev/null || echo 2)}"

echo "==> [1/4] configure + build (preset: asan-ubsan, -j${jobs})"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${jobs}"

echo "==> [2/4] ctest (asan-ubsan preset)"
ctest --preset asan-ubsan -j "${jobs}"

echo "==> [3/4] determinism audit"
./build-asan/tools/determinism_check stream BE-Mellow+SC+WQ \
    300000 50000 1 2
./build-asan/tools/determinism_check lbm BE-Mellow+SC \
    300000 50000 7 2
# Same audit with fault injection layered on: the per-line endurance
# draws, write-verify retries, repairs, retirements and remapping must
# all replay byte-identically too (trailing 1 = faults on).
./build-asan/tools/determinism_check stream BE-Mellow+SC+WQ \
    200000 50000 1 2 1
# The wear-leveler zoo backends under faults: SoftWear's sampled
# counters and page migrations, and WoLFRaM's PAD swaps plus
# delegate-routed retirements, must replay byte-identically as well.
./build-asan/tools/determinism_check stream BE-Mellow+SC+WQ \
    200000 50000 1 2 1 soft-wear
./build-asan/tools/determinism_check stream BE-Mellow+SC+WQ \
    200000 50000 1 2 1 wolfram
# Parallel-readiness gate: the sweep grid (which includes SoftWear and
# WoLFRaM entries) byte-identical between a serial run and contended
# worker threads.
./build-asan/tools/determinism_check --threads 2
./build-asan/tools/determinism_check --threads 8

echo "==> [4/4] lint (mellow_lint + configcheck + mellow-analyze + clang-tidy)"
tools/lint.sh --build-dir build-asan

echo "CI pipeline passed."
