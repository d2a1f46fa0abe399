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
total=0
for pkg in $(go list -f '{{if ne .Name "main"}}{{.ImportPath}}{{end}}' . ./internal/...); do
	decls=$(go doc -short "$pkg" 2>/dev/null | grep -cE '^ *(func|type|const|var) ' || true)
	methods=$(go doc -all "$pkg" 2>/dev/null | grep -c '^func (' || true)
	printf '%-44s %4d\n' "$pkg" $((decls + methods))
	total=$((total + decls + methods))
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
