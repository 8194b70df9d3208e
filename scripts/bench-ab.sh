#!/bin/sh
# A/B the repository benchmark: BASE against the working tree, in pairs that
# alternate which side runs first (choosing-metrics §8).
#
#   scripts/bench-ab.sh WORKLOAD [BASE] [PAIRS]     (make bench-ab W= BASE= PAIRS=)
#
# Both sides must be measured by the same benchmark, so it refuses to run
# when bench/ or BENCHMARK.json differ from BASE. BASE is built from a
# `git archive` export (nothing to unregister afterwards, unlike a worktree).
# Pair n runs both sides with --seed n --trace 0 at the benchmark's own run
# length; results land in $AB_DIR/{base,new}/results.jsonl (default
# bench/out/ab, which .gitignore covers). Prints `bench compare` for the two
# and, per metric, how many pairs the working tree won. Exits 1 on a failed
# run or a "worse"/"unresolved" verdict.
set -eu

W=${1:?usage: bench-ab.sh WORKLOAD [BASE=HEAD] [PAIRS=10]}
BASE=${2:-HEAD}
PAIRS=${3:-10}

cd "$(git rev-parse --show-toplevel)"
if ! git diff --quiet "$BASE" -- bench BENCHMARK.json; then
	echo "bench-ab: bench/ or BENCHMARK.json differ from $BASE; a change that claims a gain may not edit its benchmark" >&2
	exit 1
fi

work=${AB_DIR:-bench/out/ab}
rm -rf "$work"
mkdir -p "$work/src"
git archive "$BASE" | tar -x -C "$work/src"
(cd "$work/src" && go build -o ../bench-base ./bench)
rm -rf "$work/src"
go build -o "$work/bench-new" ./bench

seed=1
while [ "$seed" -le "$PAIRS" ]; do
	if [ $((seed % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi
	for side in $order; do
		echo "pair $seed/$PAIRS: $side" >&2
		if ! "$work/bench-$side" --workload "$W" --seed "$seed" --trace 0 --out "$work/$side" >"$work/last.txt"; then
			echo "bench-ab: $side failed on seed $seed:" >&2
			tail -n 5 "$work/last.txt" >&2
			exit 1
		fi
		# Metric lines read "workload  name  value unit ...".
		awk -v side="$side" -v seed="$seed" 'NF >= 4 && $3 ~ /^[0-9.]+$/ { print side, seed, $1, $2, $3 }' "$work/last.txt" >>"$work/runs.txt"
	done
	seed=$((seed + 1))
done

# compare exits 1 for the workloads that were not run; judge by its rows.
status=0
"$work/bench-new" compare "$work/base/results.jsonl" "$work/new/results.jsonl" | grep -v 'missing from one side' >"$work/compare.txt" || true
cat "$work/compare.txt"
if grep -v 'no worse$' "$work/compare.txt" | grep -Eq '(worse|unresolved)$'; then status=1; fi

# Only end-to-end metrics carry a bound, which picks them out of BENCHMARK.json.
higher=$(grep -o '"name": "[^"]*", "unit": "[^"]*", "better": "higher", "bound"' BENCHMARK.json | cut -d'"' -f4 | tr '\n' ' ')
echo
awk -v higher=" $higher" '
	{ key = $3 " " $4; val[$1, $2, key] = $5 + 0; keys[key]; seeds[$2] }
	END {
		for (k in keys) {
			split(k, wm, " ")
			up = index(higher, " " wm[2] " ") > 0
			wins = ties = n = 0
			for (s in seeds) {
				if (!(("base", s, k) in val) || !(("new", s, k) in val)) continue
				b = val["base", s, k]; c = val["new", s, k]; n++
				if (c == b) ties++
				else if ((c > b) == up) wins++
			}
			printf "%-13s %-15s new wins %d/%d pairs, %d ties\n", wm[1], wm[2], wins, n, ties
		}
	}' "$work/runs.txt" | sort
exit $status
