#!/usr/bin/env bash
# bench.sh — the BENCH_*.json measurement protocol, in one place.
#
#   scripts/bench.sh measure [pattern] [count] [benchtime] [pkg]
#       Run the benchmarks in [pkg] (default ./... — every package, so
#       alloc deltas land in all BENCH_*.json entries, sim and fleet
#       alike) matching the regex [pattern] (default 'BenchmarkSimSecond')
#       count times (default 3) at -benchtime (default 5x) with
#       -benchmem, and print per-benchmark medians as "name
#       median_ns_per_op bytes_per_op allocs_per_op" — the numbers that
#       go into a BENCH_*.json before/after entry. Before/after pairs
#       are measured back-to-back on the same machine (the 'before' tree
#       checked out elsewhere, or an engine-pinned benchmark variant).
#       The fleet benchmarks match pattern 'BenchmarkFleet(Epoch)?16'
#       (BENCH_PR9.json records a run).
#
#   scripts/bench.sh smoke
#       CI gate for the default event engine: build the sim test binary
#       once, run the double-density CP90 benchmark under the default
#       engine and pinned to the serial reference at -benchtime 2x in five
#       rounds that alternate which of the two goes first (so one noisy
#       stretch of the shared runner lands on both sides), and fail if the
#       default engine's median is more than 10% slower than serial's on
#       this runner. At the 90% knee
#       the lanes rarely settle, so the event engine must degrade gracefully
#       to the incremental sweep and its gap machinery must cost nothing
#       measurable; the 10% band only absorbs the shared runner's noise.
#       Catches engine regressions that the bit-equivalence tests cannot
#       (they check answers, not wall clock). It then runs the SUT at 50%
#       load under Predictive, CN, CP and CF the same alternating way
#       (-benchtime 2x, five rounds) and fails if Predictive's or CN's
#       median exceeds 2.0x CF's, or CP's 2.5x CF's. The ladder search's
#       seeded admissibility rows, which decide nearly every frequency
#       probe without a PredictTwoStep, keep Predictive at about 1.0x CF
#       and CP at 1.6-1.8x CF on a 2-vCPU Xeon, and CN's neighbourhood
#       score memo keeps CN at 1.1-1.5x CF against 2.2x for the unmemoized
#       score. A row or memo that stops engaging still picks the same
#       sockets, so only wall clock shows it. Last it runs the idle SUT
#       second the same two ways (-benchtime 20x) and fails if the default
#       engine's median exceeds 0.25x serial's: that run is one dead tail,
#       which the gap advance's dead-tail licence skips at about 0.05x
#       serial on a 2-vCPU Xeon. A licence that stops engaging still gives
#       the right answers, 20x slower; this gate is what notices.
#
#   scripts/bench.sh fleetgate
#       CI gate for the cost of epoch windows: run the 16-chassis fleet
#       benchmark at workers=1 through the one fleet executor, once in its
#       zero-epoch case (open loop) and once with 0.25s epochs (closed
#       loop), and fail if the closed-loop median is more than 25% slower.
#       Each epoch re-enters the tick engine and observes every chassis at
#       its boundary; this holds that seam to bounded overhead. The
#       equivalence tests pin its answers; this pins its wall clock.
#
#   scripts/bench.sh compare OLD.json NEW.json [max_regress_pct]
#       Diff two BENCH_*.json files on their 'after' entries: print a
#       per-benchmark speedup table (OLD.after vs NEW.after) with
#       allocation deltas, and exit 1 if any benchmark present in both
#       regressed by more than max_regress_pct (default 10) in ns/op or
#       allocs/op. Only numbers measured on the same machine are
#       comparable; the JSONs record theirs.
set -euo pipefail
cd "$(dirname "$0")/.."

# medians <go-test-bench-output>: one "name ns bytes allocs" line per
# benchmark, each the median over -count repetitions (CPU suffix stripped).
medians() {
	awk '
		/^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			for (i = 2; i <= NF; i++) {
				if ($(i) == "ns/op")     ns[name]     = ns[name] " " $(i-1)
				if ($(i) == "B/op")      bytes[name]  = bytes[name] " " $(i-1)
				if ($(i) == "allocs/op") allocs[name] = allocs[name] " " $(i-1)
			}
		}
		function median(s,   a, n, i) {
			n = split(s, a, " ")
			for (i = 2; i <= n; i++) { # insertion sort; n is tiny
				v = a[i]; j = i - 1
				while (j >= 1 && a[j] + 0 > v + 0) { a[j+1] = a[j]; j-- }
				a[j+1] = v
			}
			if (n % 2) return a[(n+1)/2]
			return int((a[n/2] + a[n/2+1]) / 2)
		}
		END {
			for (name in ns)
				printf "%s %d %d %d\n", name, median(ns[name]), median(bytes[name]), median(allocs[name])
		}
	' | sort
}

case "${1:-measure}" in
measure)
	pattern="${2:-BenchmarkSimSecond}"
	count="${3:-3}"
	benchtime="${4:-5x}"
	pkg="${5:-./...}"
	echo "# go test -run XXX -bench '$pattern' -benchtime $benchtime -count $count -benchmem $pkg" >&2
	go test -run XXX -bench "$pattern" -benchtime "$benchtime" -count "$count" -benchmem "$pkg" | medians
	;;
smoke)
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	go test -c -o "$tmp/sim.test" ./internal/sim/
	# simbench <regex> <benchtime> [count]: run the prebuilt binary from the
	# package directory, as go test would.
	simbench() {
		(cd internal/sim && "$tmp/sim.test" -test.run XXX -test.bench "$1" \
			-test.benchtime "$2" -test.count "${3:-1}" -test.timeout 10m)
	}
	# alternate <benchtime> <A> <B> [C ...]: five rounds of the benchmarks,
	# in the given order on odd rounds and in reverse on even ones.
	alternate() {
		local out="" round order b benchtime="$1"
		shift
		for round in 1 2 3 4 5; do
			if [ $((round % 2)) -eq 1 ]; then
				order="$*"
			else
				order="$(printf '%s\n' "$@" | tac | tr '\n' ' ')"
			fi
			for b in $order; do
				out="$out
$(simbench "^$b\$" "$benchtime")"
			done
		done
		echo "$out"
	}
	out="$(alternate 2x BenchmarkSimSecondDD360CP90 BenchmarkSimSecondDD360CP90Serial)"
	echo "$out"
	serial="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondDD360CP90Serial" {print $2}')"
	event="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondDD360CP90" {print $2}')"
	if [ -z "$serial" ] || [ -z "$event" ]; then
		echo "bench smoke: missing serial/event medians" >&2
		exit 1
	fi
	echo "serial median ${serial} ns/op, event median ${event} ns/op (5 alternating rounds)"
	# Fail when event > 1.10 x serial (integer math: 10*e > 11*s).
	if [ $((10 * event)) -gt $((11 * serial)) ]; then
		echo "bench smoke: event engine >10% slower than serial" >&2
		exit 1
	fi
	out="$(alternate 2x BenchmarkSimSecondPredictive50 BenchmarkSimSecondCN50 BenchmarkSimSecondCP50 BenchmarkSimSecondCF50)"
	echo "$out"
	cf="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondCF50" {print $2}')"
	pred="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondPredictive50" {print $2}')"
	cn="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondCN50" {print $2}')"
	cp="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondCP50" {print $2}')"
	if [ -z "$cf" ] || [ -z "$pred" ] || [ -z "$cn" ] || [ -z "$cp" ]; then
		echo "bench smoke: missing CF/Predictive/CN/CP medians" >&2
		exit 1
	fi
	echo "CF50 median ${cf} ns/op, Predictive50 median ${pred} ns/op, CN50 median ${cn} ns/op, CP50 median ${cp} ns/op (5 alternating rounds)"
	# Fail when Predictive > 2.0 x CF (integer math: 10*p > 20*c).
	if [ $((10 * pred)) -gt $((20 * cf)) ]; then
		echo "bench smoke: Predictive50 >2.0x CF50: the ladder search's admissibility rows did not engage" >&2
		exit 1
	fi
	# Fail when CP > 2.5 x CF (integer math: 10*p > 25*c).
	if [ $((10 * cp)) -gt $((25 * cf)) ]; then
		echo "bench smoke: CP50 >2.5x CF50: the ladder search's admissibility rows did not engage" >&2
		exit 1
	fi
	# Fail when CN > 2.0 x CF (integer math: 10*n > 20*c).
	if [ $((10 * cn)) -gt $((20 * cf)) ]; then
		echo "bench smoke: CN50 >2.0x CF50: the neighbourhood score memo did not engage" >&2
		exit 1
	fi
	out="$(simbench 'BenchmarkSimSecondIdle(Serial)?$' 20x 3)"
	echo "$out"
	serial="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondIdleSerial" {print $2}')"
	event="$(echo "$out" | medians | awk '$1 == "BenchmarkSimSecondIdle" {print $2}')"
	if [ -z "$serial" ] || [ -z "$event" ]; then
		echo "bench smoke: missing idle serial/event medians" >&2
		exit 1
	fi
	echo "idle serial median ${serial} ns/op, idle event median ${event} ns/op"
	# Fail when event > 0.25 x serial (integer math: 4*e > s).
	if [ $((4 * event)) -gt "$serial" ]; then
		echo "bench smoke: idle run >0.25x serial: the dead-tail licence did not engage" >&2
		exit 1
	fi
	;;
fleetgate)
	out="$(go test -run XXX -bench 'BenchmarkFleet(Epoch)?16/workers=1$' \
		-benchtime 2x -count 3 ./internal/fleet/)"
	echo "$out"
	open="$(echo "$out" | medians | awk '$1 == "BenchmarkFleet16/workers=1" {print $2}')"
	closed="$(echo "$out" | medians | awk '$1 == "BenchmarkFleetEpoch16/workers=1" {print $2}')"
	if [ -z "$open" ] || [ -z "$closed" ]; then
		echo "bench fleetgate: missing open/closed-loop medians" >&2
		exit 1
	fi
	echo "open-loop median ${open} ns/op, closed-loop median ${closed} ns/op"
	# Fail when closed > 1.25 x open (integer math: 4*c > 5*o).
	if [ $((4 * closed)) -gt $((5 * open)) ]; then
		echo "bench fleetgate: epoch windows make the closed loop >25% slower than the zero-epoch open loop" >&2
		exit 1
	fi
	;;
compare)
	old="${2:?usage: scripts/bench.sh compare OLD.json NEW.json [max_regress_pct]}"
	new="${3:?usage: scripts/bench.sh compare OLD.json NEW.json [max_regress_pct]}"
	tol="${4:-10}"
	extract() { # name ns allocs bytes, one line per benchmark, sorted
		jq -e '.benchmarks' "$1" > /dev/null || {
			echo "compare: $1 has no .benchmarks map (older BENCH schema?)" >&2; exit 1; }
		jq -r '.benchmarks | to_entries[]
			| "\(.key) \(.value.after.ns_per_op) \(.value.after.allocs_per_op) \(.value.after.bytes_per_op)"' "$1" | sort
	}
	join <(extract "$old") <(extract "$new") | awk -v tol="$tol" -v old="$old" -v new="$new" '
		BEGIN {
			printf "%-40s %14s %14s %8s %11s\n", "benchmark", "old ns/op", "new ns/op", "speedup", "alloc_diff"
		}
		{
			name = $1; ons = $2; oal = $3; nns = $5; nal = $6
			speedup = nns > 0 ? ons / nns : 0
			printf "%-40s %14d %14d %7.2fx %11d\n", name, ons, nns, speedup, nal - oal
			if (speedup < 1 - tol / 100) {
				bad = bad sprintf("  %s: %.1f%% slower (%.2fx)\n", name, (1 - speedup) * 100, speedup)
			}
			if (nal > oal * (1 + tol / 100)) {
				bad = bad sprintf("  %s: allocs/op grew %d -> %d\n", name, oal, nal)
			}
			n++
		}
		END {
			if (n == 0) { print "compare: no common benchmarks between the two files" > "/dev/stderr"; exit 1 }
			if (bad != "") { printf "\nregressions (tolerance %s%%):\n%s", tol, bad > "/dev/stderr"; exit 1 }
		}
	'
	;;
*)
	echo "usage: scripts/bench.sh [measure [pattern] [count] [benchtime] [pkg] | smoke | fleetgate | compare OLD.json NEW.json [pct]]" >&2
	exit 2
	;;
esac
