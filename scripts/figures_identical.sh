#!/usr/bin/env bash
# Checks the byte-identity contract of the figure benches against a git ref.
#
#   scripts/figures_identical.sh <ref>
#
# Builds <ref> (exported with `git archive` into .bench_build/figures/<sha>)
# and the working tree (into .bench_build/figures/tree), both Release, then
# runs the 17 benches of QO_FIGURE_BENCHES in bench/CMakeLists.txt (figure,
# table and ablation benches, span_distribution included) under
# QO_THREADS=1 and QO_THREADS=4 and compares the two builds' standard
# output. Prints one line per comparison and exits 1 if any output differs
# or any bench fails.
# JOBS sets the build parallelism (default 3).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <ref>" >&2
  exit 2
fi
root="$(git rev-parse --show-toplevel)"
sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
jobs="${JOBS:-3}"
out="$root/.bench_build/figures"
ref_src="$out/$sha"
tree_build="$out/tree"

mapfile -t benches < <(sed -n '/^set(QO_FIGURE_BENCHES/,/^)/p' \
  "$root/bench/CMakeLists.txt" | sed '1d;$d' | tr -d ' ')

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
    > /dev/null
  cmake --build "$2" -j "$jobs" --target "${benches[@]}" > "$2.log" 2>&1 || {
    tail -20 "$2.log" >&2
    echo "build failed: $1 (log: $2.log)" >&2
    exit 1
  }
}

if [[ ! -f "$ref_src/CMakeLists.txt" ]]; then
  mkdir -p "$ref_src"
  git -C "$root" archive "$sha" | tar -x -C "$ref_src"
fi
echo "building $sha" >&2
build "$ref_src" "$ref_src/build"
echo "building the working tree" >&2
build "$root" "$tree_build"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
compared=0
differ=0
for bench in "${benches[@]}"; do
  for threads in 1 4; do
    compared=$((compared + 1))
    status=same
    if ! QO_THREADS=$threads "$ref_src/build/bench/$bench" > "$tmp/ref" 2>/dev/null; then
      status="ref exited non-zero"
    elif ! QO_THREADS=$threads "$tree_build/bench/$bench" > "$tmp/tree" 2>/dev/null; then
      status="tree exited non-zero"
    elif ! cmp -s "$tmp/ref" "$tmp/tree"; then
      status=DIFFERENT
    fi
    [[ $status == same ]] || differ=$((differ + 1))
    printf '%-36s QO_THREADS=%d  %s\n' "$bench" "$threads" "$status"
  done
done
echo "$compared comparisons against ${sha:0:7}: $differ differ"
[[ $differ -eq 0 ]]
