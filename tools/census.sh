#!/bin/sh
# Census of the library functions no production binary links.
#
# Builds every executable under bench/, examples/ and tools/, plus the
# perfbench package (perfbench/), unoptimized and without inlining, with
# one section per function and --gc-sections: each binary then keeps
# exactly the functions it can reach. Compares the global fdet:: text
# symbols the libfdet_*.a archives define against those the binaries
# keep and prints every library function none of them links. Exit 0 when
# there is none, 1 when there is any, 2 when the build fails. A function
# only tests call belongs in tests/, beside the test that compares
# against it.
#
# Usage: tools/census.sh   (no options; builds under build/census/)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out=$root/build/census

# Release keeps production's -DNDEBUG; its flags are replaced, not added
# to, so no -O level can re-enable inlining.
build() {  # <source dir> <build dir> <target>...
  src=$1 dir=$2
  shift 2
  mkdir -p "$dir"
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
           -DCMAKE_CXX_FLAGS_RELEASE="-DNDEBUG -O0 -fno-inline -ffunction-sections -fdata-sections" \
           -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections &&
         cmake --build "$dir" --parallel "$(nproc)" --target "$@"; } \
       > "$dir/build.log" 2>&1; then
    cat "$dir/build.log" >&2
    exit 2
  fi
}

targets=""
binaries=""
for f in "$root"/bench/bench_*.cpp "$root"/tools/fdet_*.cpp "$root"/examples/*.cpp; do
  name=$(basename "$f" .cpp)
  dir=$(basename "$(dirname "$f")")
  [ "$dir" = examples ] && name=example_$name
  targets="$targets $name"
  binaries="$binaries $out/repo/$dir/$name"
done
# shellcheck disable=SC2086  # the lists split into words on purpose
build "$root" "$out/repo" $targets
build "$root/perfbench" "$out/perfbench" perfbench

# Global (T) functions in the fdet namespace; constructor and destructor
# variants demangle to one name, hence -u.
functions() { nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T \(fdet::\)/\1/p' | LC_ALL=C sort -u; }

functions "$out"/repo/src/libfdet_*.a > "$out/library.txt"
# shellcheck disable=SC2086
functions $binaries "$out/perfbench/perfbench" > "$out/linked.txt"
LC_ALL=C comm -23 "$out/library.txt" "$out/linked.txt" > "$out/unlinked.txt"

cat "$out/unlinked.txt"
unlinked=$(wc -l < "$out/unlinked.txt")
echo "census: $unlinked of $(wc -l < "$out/library.txt") library functions linked by no production binary"
[ "$unlinked" -eq 0 ] || exit 1
