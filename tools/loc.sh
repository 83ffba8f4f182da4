#!/bin/sh
# Lines of OCaml source in lib, bin and bench, generated code excluded:
# the count the project tracks next to its benchmark. Run from the
# repository root: sh tools/loc.sh
set -eu
count() { find "$@" -name '*.ml' -o -name '*.mli' | grep -v /gen/ | xargs cat | wc -l; }
for dir in lib bin bench; do
  printf '%-6s %6d\n' "$dir" "$(count "$dir")"
done
printf '%-6s %6d\n' total "$(count lib bin bench)"
