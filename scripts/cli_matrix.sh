#!/bin/sh
# CLI matrix: run every rtr_sim invocation listed in a matrix file and
# print the matrix as observed, for a diff against the committed one.
#
#   scripts/cli_matrix.sh RTR_SIM [MATRIX]    (MATRIX: scripts/cli_matrix.txt)
#
# A row is "EXIT DIGEST ERRLINES ARGS...": the exit code, the first 16
# hex digits of the MD5 of stdout, and the number of stderr lines other
# than "# " progress logs.  Wall-clock figures (precompute's "in 0.01 s",
# serve's "in 0.002 s", "lookups/s" and "ns/lookup") are masked before
# the digest.  Rows run in order in one scratch directory, so a row may
# read the files an earlier row wrote; "corpus" there links to
# test/corpus.  A line "@ DIGEST FILE" pins the MD5 of a file a row
# wrote.  A line starting with "!" is a fixture step run by sh in that
# directory; it and "#" comment lines echo through unchanged.
# Re-record the matrix with
#   scripts/cli_matrix.sh _build/default/bin/rtr_sim.exe > new && mv new scripts/cli_matrix.txt
set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
matrix=${2:-$repo/scripts/cli_matrix.txt}
case $matrix in /*) ;; *) matrix=$(pwd)/$matrix ;; esac

work=$(mktemp -d "${TMPDIR:-/tmp}/rtr_matrix.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work"
ln -s "$repo/test/corpus" corpus

# The default --jobs reads RTR_JOBS, else the machine's core count:
# pin it so no row depends on the host.
export RTR_JOBS=1
unset OCAMLRUNPARAM

set -f
while IFS= read -r line; do
  case $line in
    '' | '#'*)
      printf '%s\n' "$line"
      continue
      ;;
    '!'*)
      printf '%s\n' "$line"
      sh -c "${line#!}" < /dev/null
      continue
      ;;
    '@'*)
      # shellcheck disable=SC2086
      set -- $line
      printf '@ %s %s\n' "$(md5sum < "$3" | cut -c1-16)" "$3"
      continue
      ;;
  esac
  # shellcheck disable=SC2086
  set -- $line
  shift 3
  if "$bin" "$@" < /dev/null > .stdout 2> .stderr; then code=0; else code=$?; fi
  digest=$(sed -E \
    -e 's/in [0-9]+\.[0-9]+ s/in _ s/' \
    -e 's/[0-9]+ lookups\/s/_ lookups\/s/' \
    -e 's/[0-9]+ ns\/lookup/_ ns\/lookup/' .stdout | md5sum | cut -c1-16)
  errlines=$(grep -vc '^# ' .stderr || true)
  printf '%s %s %s %s\n' "$code" "$digest" "$errlines" "$*"
done < "$matrix"
