// Command adaedge-lint is the AdaEdge custom vettool: a
// golang.org/x/tools/go/analysis unitchecker bundling the analyzers of
// internal/lint. Run it through go vet, which exits non-zero on any
// finding:
//
//	go build -o bin/adaedge-lint ./cmd/adaedge-lint
//	go vet -vettool=$(pwd)/bin/adaedge-lint ./...
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/lint"
)

func main() {
	unitchecker.Main(lint.Analyzers...)
}
