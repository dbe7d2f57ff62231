#!/usr/bin/env bash
# Self-test of the pipeline benchmark at smoke size (a few seconds per
# workload). For every workload it checks that
#   - an untraced and a traced run each print, as the last stdout line, a
#     result with every metric BENCHMARK.json names, in its unit;
#   - a run whose expected rows carry one flipped bit exits nonzero and
#     reports "correct": false.
#
#   bash pipebench/selftest.sh        # from the repository root
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
mkdir -p .pipebench_work
out="$(mktemp -d "$root/.pipebench_work/selftest.XXXXXX")"
trap 'rm -rf "$out"' EXIT

check() { # check RESULT_FILE TRACE
    python3 - "$1" "$2" <<'PY'
import json, sys
result = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
bench = json.load(open("BENCHMARK.json"))
want = bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]
assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
assert result["correct"] is True and result["attempted"] >= 1, result
got = result["metrics"]
assert set(got) == {m["name"] for m in want}, sorted(set(got) ^ {m["name"] for m in want})
for m in want:
    assert got[m["name"]]["unit"] == m["unit"], (m, got[m["name"]])
    assert isinstance(got[m["name"]]["value"], (int, float)), m
print(f"  {len(want)} metrics present with their units")
PY
}

for w in serve-hot serve-wide pretrain; do
    for t in 0 1; do
        echo "selftest: $w --trace $t"
        bash "$here/run.sh" --workload "$w" --seed 7 --seconds 2 --trace "$t" --smoke \
            > "$out/run.txt" 2> "$out/run.err"
        check "$out/run.txt" "$t"
    done
    echo "selftest: $w with an injected wrong expected row"
    if bash "$here/run.sh" --workload "$w" --seed 7 --seconds 2 --trace 0 --smoke \
        --inject-wrong-row > "$out/bad.txt" 2> "$out/bad.err"; then
        echo "selftest FAILED: $w accepted a wrong row" >&2
        exit 1
    fi
    tail -n 1 "$out/bad.txt" | grep -q '"correct":false' || {
        echo "selftest FAILED: $w did not report correct=false" >&2
        exit 1
    }
    echo "  rejected, exit nonzero"
done
echo "selftest: ok"
