#!/usr/bin/env bash
# Same-box A/B of the repository benchmark (perfbench/): builds the
# benchmark at <rev> and at HEAD side by side, runs interleaved pairs of
# one workload, and prints, for every metric both sides report, each
# side's median and IQR, the per-pair deltas and how many pairs HEAD won.
#
# Usage, from anywhere inside the repository:
#
#   scripts/ab.sh <rev> <workload> [pairs] [--seconds N] [--trace 0|1] [--seed S]
#
#   scripts/ab.sh HEAD~1 whatif-mix 10
#   scripts/ab.sh HEAD whatif-mix 1 --seconds 1      # smoke: HEAD vs HEAD
#
# pairs defaults to 10. Pair i runs both sides with seed S+i (S defaults
# to a fresh value, printed so a run can be repeated), and pairs
# alternate which side runs first so drift on the box does not favour
# one side. Both trees are exported with `git archive` from committed
# revisions into a scratch directory that is removed on exit, so
# uncommitted edits are never measured. "Better" per metric follows
# BENCHMARK.json at HEAD; a metric it does not list counts lower as
# better. The script exits non-zero if a run fails or an output check in
# either side fails.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh <rev> <workload> [pairs] [--seconds N] [--trace 0|1] [--seed S]" >&2
	exit 2
}

[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
pairs=10
if [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; then
	pairs=$1
	shift
fi
seconds=10 trace=0 seed=$(( $(date +%s) % 100000 ))
while [ $# -gt 0 ]; do
	case $1 in
	--seconds) seconds=${2:?}; shift 2 ;;
	--trace) trace=${2:?}; shift 2 ;;
	--seed) seed=${2:?}; shift 2 ;;
	*) usage ;;
	esac
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$rev^{commit}")
head=$(git -C "$root" rev-parse --verify "HEAD^{commit}")
dir=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$dir"' EXIT

for side in base head; do
	commit=${!side}
	mkdir -p "$dir/$side"
	git -C "$root" archive "$commit" | tar -x -C "$dir/$side"
	echo "# building $side (${commit:0:12})" >&2
	(cd "$dir/$side/perfbench" && go build -o "$dir/bin-$side" .)
done

echo "# $workload: $pairs pairs, --seconds $seconds --trace $trace, seeds $seed..$((seed + pairs - 1))" >&2
run() { # side pair
	local out="$dir/out-$1-$2"
	if ! (cd "$dir/$1" && "$dir/bin-$1" --workload "$workload" --seed $((seed + $2)) \
		--seconds "$seconds" --trace "$trace") >"$out.log" 2>&1; then
		echo "# $1 run of pair $2 failed:" >&2
		tail -5 "$out.log" >&2
		return 1
	fi
	tail -1 "$out.log" >"$out.json"
}
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base $i
		run head $i
	else
		run head $i
		run base $i
	fi
done

python3 - "$dir" "$pairs" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys

d, pairs, spec = sys.argv[1], int(sys.argv[2]), sys.argv[3]
better = {}
try:
    with open(spec) as f:
        b = json.load(f)
    for m in b.get("end_to_end", []) + b.get("per_layer", []):
        better[m["name"]] = m.get("better", "lower")
except OSError:
    pass

def load(side, i):
    with open(f"{d}/out-{side}-{i}.json") as f:
        return json.load(f)

runs = {s: [load(s, i) for i in range(pairs)] for s in ("base", "head")}
ok = True
for s, rs in runs.items():
    for i, r in enumerate(rs):
        if not r.get("correct") or r.get("failed", 0):
            print(f"# {s} pair {i}: correct={r.get('correct')} failed={r.get('failed')}")
            ok = False

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

names = sorted(set(runs["base"][0]["metrics"]) & set(runs["head"][0]["metrics"]))
print(f"{'metric':34} {'base median [IQR]':>30} {'head median [IQR]':>30} {'delta':>8} {'wins':>6}")
for n in names:
    a = [r["metrics"][n]["value"] for r in runs["base"]]
    h = [r["metrics"][n]["value"] for r in runs["head"]]
    higher = better.get(n, "lower") == "higher"
    wins = sum((y > x) if higher else (y < x) for x, y in zip(a, h))
    a1, am, a3 = quartiles(a)
    h1, hm, h3 = quartiles(h)
    delta = (hm - am) / am * 100 if am else float("nan")
    ca = f"{am:.4g} [{a1:.4g}, {a3:.4g}]"
    ch = f"{hm:.4g} [{h1:.4g}, {h3:.4g}]"
    print(f"{n:34} {ca:>30} {ch:>30} {delta:+7.1f}% {wins:>3}/{pairs}")
    steps = " ".join(f"{(y - x) / x * 100:+.1f}%" if x else "n/a" for x, y in zip(a, h))
    print(f"{'':34} per pair ({'higher' if higher else 'lower'} is better): {steps}")
sys.exit(0 if ok else 1)
EOF
