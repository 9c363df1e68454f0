#!/usr/bin/env bash
# Runs the installed `crn` console script on small inputs. The tests call
# cli.run; here numpy warnings print instead of raising, so stderr must hold
# exactly the one coded line, or nothing.
#
#     bash .github/crn-entry-point.sh
set -euo pipefail
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

printf 'species: A\n0 <-> A @ 3, 1\n' > "$tmp/bd.crn"
crn analyze "$tmp/bd.crn"
crn rate "$tmp/bd.crn" --x0 0 --t-end 5
# scipy is for the Fock-space side only: crnkit.cli loads none of it,
# and crn master imports crnkit.fock when it runs
python -c "import sys, crnkit.cli; sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
crn master "$tmp/bd.crn" --n0 0 --caps 15 --t-end 1
printf 'A -> A @ 1\n' > "$tmp/loop.crn"
crn parse "$tmp/loop.crn" 2> "$tmp/err.txt"
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^warning\[E_SELF_LOOP\]: 1:1: ' "$tmp/err.txt"
printf '2 X1 <-> X2 @ 1, 2\n' > "$tmp/dia.crn"
status=0
crn ack "$tmp/dia.crn" --c 1e300,1 --caps 3,3 2> "$tmp/err.txt" || status=$?
test "$status" -eq 1
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^error\[E_EXPLODE\]: ' "$tmp/err.txt"
# the certificates on a complex-balanced c (k1 c1^2 = k2 c2) exit 0 with strict JSON
crn ack "$tmp/dia.crn" --c 1,0.5 > "$tmp/ack.json"
python -m json.tool "$tmp/ack.json" > /dev/null
crn noether "$tmp/dia.crn" --c 1,0.5 > "$tmp/noether.json"
python -m json.tool "$tmp/noether.json" > /dev/null
# on caps 2,2 every state lies in a cap slab, where the coherent-state identity
# is corrected per transition: exit 0, JSON without Infinity or NaN, and no
# numpy warning (a 0 * inf would print one) on stderr
strict='import json, sys; json.load(sys.stdin, parse_constant=lambda c: sys.exit(f"JSON holds {c}"))'
for cmd in ack noether; do
    crn "$cmd" "$tmp/dia.crn" --c 1,0.5 --caps 2,2 > "$tmp/$cmd.json" 2> "$tmp/err.txt"
    python -c "$strict" < "$tmp/$cmd.json"
    test ! -s "$tmp/err.txt"
done
# uniformization on the banded step, at the evolve benchmark's shape:
# a scipy or numpy warning would print here, so stderr must stay empty
crn master "$tmp/dia.crn" --n0 15,5 --caps 40,40 --t-end 2 > "$tmp/master.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
# a one-state sector of the evolve benchmark's network (2 n1 + n2 = 1 holds
# only (0, 1)): the term block is two columns wide for one state, and all
# the mass stays on that state
printf 'X1 -> 2 X2 @ 2\n2 X2 -> X1 @ 1\n' > "$tmp/dimer.crn"
crn master "$tmp/dimer.crn" --n0 0,1 --caps 40,40 --t-end 2 > "$tmp/master.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
test "$(sed 1d "$tmp/master.csv" | cut -d, -f1,2)" = "0,1"
# the symmetry demo on the certify benchmark's 199,268-state box runs the
# masked exp and the where= divide in blocks of rows; its reference holds
# subnormal weights, which the relative error leaves out, and no numpy
# warning may print
crn noether "$tmp/dimer.crn" --c 1250,50 --s 0.01 > "$tmp/noether.json" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
python -c 'import json, sys
error = json.load(sys.stdin)["symmetry"]["max_rel_err_interior"]
sys.exit(0 if error < 1e-10 else f"max_rel_err_interior is {error}")' < "$tmp/noether.json"
# the SSA path CSV goes out in numpy blocks of up to 2**15 rows (three
# here): every time field must be the repr of its float, and neither run
# may print a numpy warning
crn ssa "$tmp/dia.crn" --n0 50,0 --t-end 900 --seed 7 > "$tmp/path.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
python -c 'import sys
next(sys.stdin)
bad = [f for f in (line.split(",", 1)[0] for line in sys.stdin) if f != repr(float(f))]
sys.exit(f"time fields that are not repr: {bad[:3]}" if bad else 0)' < "$tmp/path.csv"
# a network of no species: the path is the header "t," and one time per
# row, and stderr holds only the self-loop warning
printf '0 -> 0 @ 1\n' > "$tmp/zero.crn"
crn ssa "$tmp/zero.crn" --n0= --t-end 3 > "$tmp/path.csv" 2> "$tmp/err.txt"
test "$(head -n 1 "$tmp/path.csv")" = "t,"
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^warning\[E_SELF_LOOP\]: 1:1: ' "$tmp/err.txt"
crn ssa "$tmp/bd.crn" --n0 0 --histogram --samples 2000 --seed 3 > "$tmp/hist.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
