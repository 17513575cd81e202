#!/usr/bin/env bash
# Docs consistency, run from the repository root:
#  1. every Test*, Fuzz* or Benchmark* name that DESIGN.md, README.md or the
#     verify skill cites has a func in some _test.go file (a name that is one
#     of ci.yml's -run or -bench patterns may instead be a prefix of such a
#     func, as the pattern matches it);
#  2. every name in a -run pattern of .github/workflows/ci.yml appears in the
#     verify skill, so the skill lists every check CI runs.
# Prints each offence and exits 1 if there is one.
set -euo pipefail

skill=.claude/skills/verify/SKILL.md
ci=.github/workflows/ci.yml
docs=(DESIGN.md README.md "$skill")

funcs=$(find . -name '*_test.go' -not -path './.git/*' -print0 |
	xargs -0 grep -hoE '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' | sed 's/^func //' | sort -u)
# The names in ci.yml's -run (or -bench) patterns: '^(A|B)$/^unix' gives A
# and B.
names() {
	grep -oE -- "-$1[ =]'[^']*'" "$ci" | sed -E "s/^-$1[ =]'//; s/'$//; s|/.*||; s/[][()^\$]//g" |
		tr '|' '\n' | grep -E '^(Test|Fuzz|Benchmark)' | sort -u
}
patterns=$(names run)
prefixes=$(names run; names bench)

bad=0
for name in $(grep -ohE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' "${docs[@]}" | sort -u); do
	if grep -qx -- "$name" <<<"$funcs"; then
		continue
	fi
	if grep -qx -- "$name" <<<"$prefixes" && grep -q -- "^$name" <<<"$funcs"; then
		continue
	fi
	echo "docs cite $name, which names no func in a _test.go file: $(grep -lw -- "$name" "${docs[@]}" | tr '\n' ' ')" >&2
	bad=1
done
for name in $patterns; do
	if ! grep -qw -- "$name" "$skill"; then
		echo "ci.yml runs -run $name, which $skill does not list" >&2
		bad=1
	fi
done
exit $bad
