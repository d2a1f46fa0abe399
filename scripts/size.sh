#!/usr/bin/env bash
# size.sh — the sizes ROADMAP aim 2 tracks, from one command, so that two
# commits are compared by diffing two outputs:
#
#   scripts/size.sh > /tmp/size.txt
#
# Lines:    Go lines outside tests and in tests (generated build trees and
#           analyzer fixtures excluded).
# Packages: under internal/, and the part outside the rcvet analyzers.
# Names:    per library package, exported top-level declarations (as
#           `go doc -short` lists them: a const or var group is one line)
#           plus exported methods. Struct fields are not counted.
# Flags:    flag definitions per command.
# Unused:   exported names (as counted above) that no non-test Go file in
#           the module uses: candidates for deletion. A name counts as
#           used when it occurs in code (comments and method receivers
#           stripped) more often than it is declared, so a name shared
#           with a used one is never listed.
#
# Uses only the go toolchain and POSIX tools; downloads nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() { find . -name '*.go' -not -path './.bench_build/*' -not -path '*/testdata/*' "$@"; }
lines() { xargs cat | wc -l | tr -d ' '; }

echo "== Go lines"
echo "non-test  $(gofiles -not -name '*_test.go' | lines)"
echo "test      $(gofiles -name '*_test.go' | lines)"

echo "== internal packages"
echo "all               $(go list ./internal/... | wc -l | tr -d ' ')"
echo "outside analysis  $(go list ./internal/... | grep -vc /internal/analysis)"

echo "== exported names (declarations + methods)"
declared=$(mktemp)
trap 'rm -f "$declared"' EXIT
total=0
for pkg in $(go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' . ./internal/...); do
	short=$(go doc -short "$pkg" 2>/dev/null || true)
	all=$(go doc -all "$pkg" 2>/dev/null || true)
	decls=$(grep -cE '^ *(func|type|const|var) ' <<<"$short" || true)
	methods=$(grep -c '^func (' <<<"$all" || true)
	printf '%-44s %4d\n' "$pkg" $((decls + methods))
	total=$((total + decls + methods))
	# One "name label" line per declaration: Name pkg.Name, Method pkg.Type.Method.
	{
		sed -nE 's/^ *(func|type|const|var) ([A-Z][A-Za-z0-9_]*).*/\2 '"${pkg##*/}"'.\2/p' <<<"$short"
		sed -nE 's/^func \([a-z0-9_]* \*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Z][A-Za-z0-9_]*).*/\3 '"${pkg##*/}"'.\1.\3/p' <<<"$all"
	} >>"$declared"
done
printf '%-44s %4d\n' total "$total"

echo "== flags per command"
total=0
for dir in cmd/*/; do
	n=$(cat "$dir"*.go | grep -v '^\s*//' | grep -cE '\b(flag|fs)\.(String|Int|Int64|Uint|Uint64|Float64|Bool|Duration|Func|Var|[A-Za-z0-9]+Var)\(' || true)
	printf '%-12s %3d\n' "$(basename "$dir")" "$n"
	total=$((total + n))
done
printf '%-12s %3d\n' total "$total"

echo "== exported names no non-test code uses"
gofiles -not -name '*_test.go' -print0 | xargs -0 sed -E -e 's://.*$::' -e 's/^func \([^)]*\)/func/' |
	grep -owF -f <(cut -d' ' -f1 "$declared" | sort -u) |
	sort | uniq -c |
	awk 'NR == FNR { decl[$1]++; label[$1] = label[$1] " " $2; next }
		{ used[$2] = $1 }
		END { for (n in decl) if (used[n] <= decl[n]) { split(substr(label[n], 2), l, " "); for (i in l) print l[i] } }' "$declared" - |
	sort
