#!/bin/sh
# callers.sh — everything left has a caller.
#
# Lists every top-level func or method defined in a non-test Go file outside
# benchmark/ whose name occurs nowhere else in non-test Go code (benchmark/
# counts as a user): not in another file, not a second time in its own. Such
# a name is reached by its own unit tests at most, and the rule of this
# repository is that it goes — or earns a line in the exempt list below with
# the reason it stays.
#
# Registered means sent: it also lists every command name a Name() method in
# internal/commands returns that no non-test Go file outside internal/commands
# spells as a string literal. No figure, workload, example or tool sends such
# a command; only its own tests do, and it goes too.
#
# Regex-level on purpose (comments are stripped, strings are not; two methods
# of one name count together): it over-reports nothing the compiler would call
# used, and what it under-reports `go vet` and review catch. Run from the
# repository root (make callers).
set -eu

# name<TAB>reason — why a name that only its definition (and tests) mention stays.
exempt() {
	cat <<'EOF'
Set	flag.Value (the repeatable -fault and -p flags)
Unwrap	errors.Is(err, ErrOverloaded / ErrDraining) reaches the sentinel through it
DecompressBlock	reference inverse: proves the compression ablation's CompressBlock lossless
CheckInvariants	invariant checker the recovery and soak suites call on blockJournal
MinJacobianDet	invariant checker the dataset suite calls on every generated block
Mutate	fault probe the comm fuzzers and the wal suite corrupt frames with
Mix64	seeded mixer the churn soak draws its timelines from
Matching	trace probe the recovery suite asserts on
CountMatching	trace probe the recovery and memo suites assert on
LiveWorkers	scheduler probe the fault, churn and restart suites assert on
Draining	scheduler probe the drain suite asserts on
FinishedCount	scheduler probe the bounded-finished-table tests assert on
WALErr	walSink probe the restart suite asserts on
SessionID	RemoteClient probe the durable and memo suites assert on
DialResume	public durable-session dial (DialRetry + Resume) the durable, restart and memo suites drive
ActiveLeafCells	BSP probe: the pruning tests count surviving cells through it
Vel	read side of SetVel; the dataset suite checks generated velocity fields through it
AlmostEqual	float comparison shared by the grid, iso, mesh, vortex and dataset suites
MulVec	Solve3's tests build their right-hand sides with it
NewMemBackend	in-memory storage fake the loader and storage suites substitute for a disk
Decide	selector probe: the loader suite reads the fitness ranking through it
Reliability	selector probe: the loader suite reads the reliability estimate through it
ProgressiveExtract	single-block driver the progressive suite runs ProgressiveBlock through
EOF
}

files=$(git ls-files '*.go' | grep -v '_test\.go$')
defs=$(mktemp) uses=$(mktemp) names=$(mktemp) senders=$(mktemp)
trap 'rm -f "$defs" "$uses" "$names" "$senders"' EXIT

# Identifier census over comment-stripped source: "count name".
for f in $files; do sed 's,//.*$,,' "$f"; done |
	grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c | awk '{print $2 "\t" $1}' >"$uses"

# Definitions: "name file".
for f in $(echo "$files" | grep -v '^benchmark/'); do
	sed -nE 's/^func (\([^)]*\) )?([A-Za-z_][A-Za-z0-9_]*).*/\2/p' "$f" | sed "s,\$,\t$f,"
done >"$defs"

exempt | cut -f1 >"$names"

uncalled=$(awk -F'\t' '
	FILENAME == ARGV[1] { exempt[$1] = 1; next }
	FILENAME == ARGV[2] { uses[$1] = $2; next }
	{ ndef[$1]++; where[$1] = where[$1] " " $2 }
	END {
		for (n in ndef)
			if (uses[n] <= ndef[n] && !(n in exempt)) print n "\t" where[n]
		for (n in exempt)
			if (uses[n] > ndef[n]) print n "\t stale exemption: it has a caller now, or is gone"
	}' "$names" "$uses" "$defs" | sort)

# Registered commands and the comment-stripped source that may send them.
commands=$(for f in $(echo "$files" | grep '^internal/commands/'); do
	sed -nE 's/^func \([^)]*\) Name\(\) string \{ return "([^"]+)" \}.*/\1/p' "$f"
done | sort)
for f in $(echo "$files" | grep -v '^internal/commands/'); do sed 's,//.*$,,' "$f"; done >"$senders"
unsent=$(for c in $commands; do grep -qF "\"$c\"" "$senders" || echo "$c"; done)

echo "callers: $(wc -l <"$defs" | tr -d ' ') funcs and methods; exempt, each with its reason:"
exempt | sed 's/^/  /'
status=0
if [ -n "$uncalled" ]; then
	echo "callers: defined but named nowhere else in non-test code (or exempted without need):"
	echo "$uncalled" | sed 's/^/  /'
	status=1
else
	echo "callers: every other name has a user outside its own tests"
fi
if [ -n "$unsent" ]; then
	echo "callers: registered commands no non-test code outside internal/commands sends:"
	echo "$unsent" | sed 's/^/  /'
	status=1
else
	echo "callers: all $(echo "$commands" | wc -w | tr -d ' ') registered commands have a sender outside internal/commands"
fi
exit $status
