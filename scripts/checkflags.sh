#!/bin/sh
# checkflags.sh — the server's flags and the documents that name them agree.
#
#   1. every flag defined in cmd/viracocha-server/main.go has a row in
#      README.md's "Server flags" table;
#   2. every -flag on a viracocha-server / vserver command line in README.md
#      and the verify skill is a defined server flag;
#   3. every -flag inside an inline `-...` span of those two files is a defined
#      server or client flag — the recipes there are prose, not command lines.
#
# So a deleted flag cannot survive in a recipe, and a new one cannot ship
# undocumented. Run from the repository root (make flags).
set -eu

defined() { sed -nE 's/.*flag\.[A-Za-z0-9]+\((&[A-Za-z]+, )?"([a-z-]+)".*/\2/p' "$1"; }
server=$(defined cmd/viracocha-server/main.go)
client=$(defined cmd/viracocha-client/main.go)
docs="README.md .claude/skills/verify/SKILL.md"
bad=0

for f in $server; do
	grep -q "^| \`-$f\` " README.md || { echo "README.md: server flag -$f has no row in the flag table"; bad=1; }
done

# used FILE...: "file:flag where" for each -flag of kinds 2 and 3 above.
used() {
	awk '
	function flags(s, where,    n, i, t) {
		n = split(s, t, /[ \t]+/)
		for (i = 1; i <= n; i++)
			if (t[i] ~ /^-[a-z][a-z-]*$/) print FILENAME ":" substr(t[i], 2), where
	}
	{
		line = line $0
		if (sub(/\\$/, " ", line)) next # a continued command line
		s = line; line = ""
		rest = s
		while (match(rest, /`-[a-z][^`]*`/)) {
			flags(substr(rest, RSTART + 1, RLENGTH - 2), "span")
			rest = substr(rest, RSTART + RLENGTH)
		}
		if (match(s, /(viracocha-server|vserver) +-/)) {
			cmd = substr(s, RSTART)
			sub(/[ \t]#.*/, "", cmd)
			flags(cmd, "server")
		}
	}' "$@"
}

stale=$(used $docs | sort -u | while read -r at where; do
	f=${at#*:}
	allowed=$server
	[ "$where" = span ] && allowed="$server $client"
	case " $(echo $allowed) " in
	*" $f "*) ;;
	*) echo "${at%%:*}: -$f is not a defined flag ($where)" ;;
	esac
done)
[ -z "$stale" ] || { echo "$stale"; bad=1; }

[ $bad = 0 ] && echo "flags: $(echo $server | wc -w) server flags documented, no stale flag in README.md or the verify skill"
exit $bad
