#!/usr/bin/env bash
# Frontier goldens: rows at n = 10^5 to 4 * 10^6 on every route, checked byte
# for byte.  Each verify run below is regenerated into OUTDIR, its exit code
# checked, and its report and findings file compared with cmp against the
# copies in this directory, or, where a <name>.sha256 file stands in for
# them, checked by sha256sum -c: the n = 4 * 10^6 gap-1 witness (23 MB of
# JSON and a 20 MB findings file) is kept by its SHA-256 alone.
#
#     bash tests/golden/check.sh [OUTDIR]
#
# OUTDIR defaults to a temporary directory, removed on exit.  The first
# difference stops the script with a non-zero exit.  The runs take 5-8 s on
# a shared 2-core x86 machine (Python 3.11.7).
#
# The runs:
#   sampled-1e5-m234  sampled cells of every m = 2, 3, 4 at n = 100 000:
#                     lattice and level-set rows
#   sampled-1e6-m23   the same for m = 2, 3 at n = 1 000 000
#   series-a-99856    the m = 3 gap-1 series (a) at j = 158, D = 159, on
#                     level sets
#   list-1e6-d261     C(1, 204540, 260099) at n = 10^6, D = 261: the list
#                     kernel, over LEVEL_CAP
#   list-1e6-d501     C(1, 1001, 499999) at n = 10^6, D = 501: the list
#                     kernel, a gap-1 row
#   witness-4e6       C(1, 1999999) at n = 4 * 10^6: the lattice, a gap-1
#                     row whose witness has 1 000 002 vertices
#   ecc-far-100001    C(1, 50000) on the lattice: V_Dc = {D, D + 1,
#                     n - D - 1, n - D}, so ecc(u_0) = D + 1, and a point
#                     of it has chord(i) > D + 1, so ecc(v_0) = D + 2
#   ecc-d1-100600     C(1, 448, 449) on the list kernel: the same V_Dc with
#                     gap 1 (a thm43 finding).  C_n(1, 2j, 2j + 1) has D = j
#                     and this V_Dc on a band of n just above 2 j^2 (a
#                     pattern seen on rings to 1 500; here j = 224)
# The last two are the rows whose verdicts turn on the edges of
# _summarize's ecc rule, the points D + 1 and n - D - 1 of V_Dc and a far
# point on a row with ecc(u_0) = D + 1; no row above them meets either.
set -euo pipefail

golden=$(cd "$(dirname "$0")" && pwd)
if [ $# -ge 1 ]; then
  out=$1
  mkdir -p "$out"
else
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi
export PYTHONPATH="$golden/../../src${PYTHONPATH:+:$PYTHONPATH}"

# name, extension, expected exit code, verify arguments
while read -r name ext want args; do
  rc=0
  python -m loopnet verify $args --out "$out/$name.$ext" < /dev/null > /dev/null || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "$name: exit $rc, expected $want" >&2
    exit 1
  fi
  if [ -f "$golden/$name.sha256" ]; then
    (cd "$out" && sha256sum --quiet -c "$golden/$name.sha256")
  else
    cmp "$golden/$name.$ext" "$out/$name.$ext"
    cmp "$golden/$name.findings.json" "$out/$name.findings.json"
  fi
  echo "$name: exit $rc, equal"
done <<'RUNS'
sampled-1e5-m234 csv 0 --n 100000 --m 2,3,4 --sample-cap 1000 --sample-size 10 --seed 1 --theorems 4.1,4.2,4.3,4.4,4.5
sampled-1e6-m23 csv 0 --n 1000000 --m 2,3 --sample-cap 1000 --sample-size 10 --seed 1 --theorems 4.1,4.2,4.3,4.4,4.5
series-a-99856 json 4 --n 99856 --gens 1,317,49927 --theorems 4.5 --format json
list-1e6-d261 csv 0 --n 1000000 --gens 1,204540,260099
list-1e6-d501 csv 4 --n 1000000 --gens 1,1001,499999 --theorems 4.5
witness-4e6 json 4 --n 4000000 --gens 1,1999999 --theorems 4.5 --format json
ecc-far-100001 csv 0 --n 100001 --gens 1,50000
ecc-d1-100600 csv 4 --n 100600 --gens 1,448,449
RUNS
