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
# the exact elimination on 22 species and 50 transitions: rank 18, and four
# laws (the total count of each residue class of the species index mod 4);
# the digest is that of the output with the timestamp line dropped
python -c 'print("species: " + " ".join(f"X{i}" for i in range(22)))
for j in range(50):
    a, b = (7 * j + 3) % 22, (5 * j + 1) % 22
    c, d = a + 4 if a < 18 else a - 16, b + 8 if b < 14 else b - 12
    print(f"X{a} + X{b} -> X{c} + X{d} @ 1.{j}")' > "$tmp/scan.crn"
crn analyze "$tmp/scan.crn" > "$tmp/analyze.json"
test "$(grep -v '"generated_at"' "$tmp/analyze.json" | sha256sum | cut -d' ' -f1)" = c16d3c1e44024d23086a1238958e8d26160f65a8cafed101f52aaded85b5e6ce
# crn rate on the same network: each RK4 try runs as code generated for its
# 22 species and 50 transitions; the 152 lines are those of the table loop
crn rate "$tmp/scan.crn" --x0 1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1 --t-end 1 > "$tmp/rate.csv"
test "$(sha256sum < "$tmp/rate.csv" | cut -d' ' -f1)" = a3bfe17ce11915ac6f9299bf0f407da23f7053b1ec7a60b21e90f1576b6689da
# the step-controlled RK4 loop is crn rate's one route: the digest pins its
# bytes, and a fixed-step --dt is a usage error (exit 2)
crn rate "$tmp/bd.crn" --x0 0 --t-end 5 > "$tmp/rate.csv"
test "$(sha256sum < "$tmp/rate.csv" | cut -d' ' -f1)" = 4f2b1c49c7d4a84516c1d310b110efcd3f7c24da61b57a9325d20d17c7177d0e
status=0
crn rate "$tmp/bd.crn" --x0 0 --t-end 5 --dt 0.05 2> /dev/null || status=$?
test "$status" -eq 2
# scipy is for the Fock-space side only: crnkit.cli loads none of it,
# and crn master imports crnkit.fock when it runs
python -c "import sys, crnkit.cli; sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
# numpy is for the float results only: crn analyze is exact on Python ints
# and loads none of it
python -c "import sys, crnkit.cli; crnkit.cli.run(['analyze', sys.argv[1]]); sys.exit('numpy' in sys.modules)" "$tmp/bd.crn" > /dev/null
crn master "$tmp/bd.crn" --n0 0 --caps 15 --t-end 1
printf 'A -> A @ 1\n' > "$tmp/loop.crn"
crn parse "$tmp/loop.crn" 2> "$tmp/err.txt"
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^warning\[E_SELF_LOOP\]: 1:1: ' "$tmp/err.txt"
# the Petri net as Graphviz: one box per transition of the catalyst network
printf 'species: A B C AC\n0 -> A @ 1\nB -> 0 @ 2\nA + C -> AC @ 0.5\nAC -> 2 B + C @ 1.25\n' > "$tmp/catalyst.crn"
crn parse "$tmp/catalyst.crn" --dot > "$tmp/petri.dot"
test "$(grep -c 'shape=box' "$tmp/petri.dot")" -eq 4
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
# the symmetry demo on the certify benchmark's 199,268-state box multiplies
# out the tilted 1-D Poisson tables and runs the where= divide in blocks of
# rows; its reference holds subnormal weights, which the relative error
# leaves out, and no numpy warning may print
crn noether "$tmp/dimer.crn" --c 1250,50 --s 0.01 > "$tmp/noether.json" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
python -c 'import json, sys
error = json.load(sys.stdin)["symmetry"]["max_rel_err_interior"]
sys.exit(0 if error < 1e-10 else f"max_rel_err_interior is {error}")' < "$tmp/noether.json"
# the SSA path CSV goes out in numpy blocks of up to 2**15 rows (three
# here): every time field must be the repr of its float, and neither run
# may print a numpy warning. The path's first 2**11 jumps draw from
# random.Random(7) itself, the rest from numpy's legacy MT19937 in blocks,
# set to that generator's state; the digest is that of the path drawn one
# random() call at a time
crn ssa "$tmp/dia.crn" --n0 50,0 --t-end 900 --seed 7 > "$tmp/path.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
test "$(sha256sum < "$tmp/path.csv" | cut -d' ' -f1)" = 90965c02b4039b8ba73f2f9a7f6f3d05436ceb8d92fc52fd4e1149467507a770
python -c 'import sys
next(sys.stdin)
bad = [f for f in (line.split(",", 1)[0] for line in sys.stdin) if f != repr(float(f))]
sys.exit(f"time fields that are not repr: {bad[:3]}" if bad else 0)' < "$tmp/path.csv"
# a start count of 2**63 does not fit the int64 states of a path: exit 1
# with one coded line, not an OverflowError
status=0
crn ssa "$tmp/bd.crn" --n0 9223372036854775808 --t-end 1e-30 2> "$tmp/err.txt" || status=$?
test "$status" -eq 1
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^error\[E_VALUE\]: ' "$tmp/err.txt"
# a network of no species: the path is the header "t," and one time per
# row, and stderr holds only the self-loop warning
printf '0 -> 0 @ 1\n' > "$tmp/zero.crn"
crn ssa "$tmp/zero.crn" --n0= --t-end 3 > "$tmp/path.csv" 2> "$tmp/err.txt"
test "$(head -n 1 "$tmp/path.csv")" = "t,"
test "$(wc -l < "$tmp/err.txt")" -eq 1
grep -q '^warning\[E_SELF_LOOP\]: 1:1: ' "$tmp/err.txt"
crn ssa "$tmp/bd.crn" --n0 0 --histogram --samples 2000 --seed 3 > "$tmp/hist.csv" 2> "$tmp/err.txt"
test ! -s "$tmp/err.txt"
