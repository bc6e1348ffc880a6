// gridlint is the repo's contract checker: a go/analysis multichecker that
// statically enforces the determinism, hot-path and logical-clock
// contracts the dynamic gates (race, alloc, chaos, sweep) probe at runtime.
//
// It speaks the unitchecker protocol, so it runs under the build system's
// vet driver — which is also how its analyzers see export data and facts
// for dependency packages:
//
//	go build -o /tmp/gridlint ./cmd/gridlint
//	go vet -vettool=/tmp/gridlint ./...
//
// Note that -vettool replaces the stock vet suite, so CI runs plain
// `go vet ./...` alongside gridlint rather than instead of it. The stock
// nilness and shadow passes are not in the distribution's vendored analysis
// subset; the in-repo reimplementations under internal/analysis fill in.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"gridroute/internal/analysis/detflow"
	"gridroute/internal/analysis/hotalloc"
	"gridroute/internal/analysis/nilness"
	"gridroute/internal/analysis/seqclock"
	"gridroute/internal/analysis/shadow"
)

func main() {
	unitchecker.Main(
		detflow.Analyzer,
		hotalloc.Analyzer,
		seqclock.Analyzer,
		nilness.Analyzer,
		shadow.Analyzer,
	)
}
