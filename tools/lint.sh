#!/usr/bin/env bash
# Static checks for mellowsim: mellow-analyze, then clang-tidy.
#
# Usage:
#   tools/lint.sh [--build-dir DIR] [--changed] [files...]
#
#   --build-dir DIR  Build tree holding compile_commands.json
#                    (default: build; configured automatically if
#                    missing).
#   --changed        Lint only files changed relative to HEAD.
#   files...         Explicit source files to lint. Default: every
#                    first-party .cc file under src/, tools/, tests/.
#
# mellow-analyze gates first (it needs only python3); clang-tidy is
# skipped with a notice when not installed, so the tier-1 pipeline
# stays green on toolchains that only ship gcc.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir="build"
changed_only=0
declare -a files=()

while [[ $# -gt 0 ]]; do
    case "$1" in
        --build-dir) build_dir="$2"; shift 2 ;;
        --changed)   changed_only=1; shift ;;
        -h|--help)   sed -n '2,16p' "$0"; exit 0 ;;
        *)           files+=("$1"); shift ;;
    esac
done

# The project checker needs nothing but python3, so it runs first and
# unconditionally: clang-tidy being absent must not hide strong-type /
# determinism regressions.
if command -v python3 >/dev/null 2>&1; then
    echo "lint.sh: running tools/analyze/mellow_analyze.py"
    python3 tools/analyze/mellow_analyze.py src tools
else
    echo "lint.sh: python3 not found on PATH; skipping mellow-analyze."
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "lint.sh: clang-tidy not found on PATH; skipping clang-tidy" \
         "(install clang-tidy to enable)."
    exit 0
fi

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json missing;" \
         "configuring ${build_dir}..."
    cmake -B "${build_dir}" -S . >/dev/null
fi

if [[ ${#files[@]} -eq 0 ]]; then
    if [[ ${changed_only} -eq 1 ]]; then
        mapfile -t files < <(git diff --name-only HEAD -- \
            'src/*.cc' 'tools/*.cc' 'tests/*.cc')
    else
        mapfile -t files < <(git ls-files \
            'src/*.cc' 'tools/*.cc' 'tests/*.cc')
    fi
fi

if [[ ${#files[@]} -eq 0 ]]; then
    echo "lint.sh: nothing to lint."
    exit 0
fi

echo "lint.sh: linting ${#files[@]} file(s) with $(clang-tidy --version | head -1)"
status=0
for f in "${files[@]}"; do
    clang-tidy -p "${build_dir}" --quiet "${f}" || status=1
done

if [[ ${status} -ne 0 ]]; then
    echo "lint.sh: clang-tidy reported findings." >&2
fi
exit "${status}"
