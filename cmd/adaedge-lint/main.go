// Command adaedge-lint is the AdaEdge custom vettool: a
// golang.org/x/tools/go/analysis unitchecker bundling the analyzers that
// enforce the DESIGN.md §7 and §10 invariants (codec purity, panic-free
// decoders, lock discipline on guarded fields, sequencer-only stochastic
// decisions, pooled-buffer ownership, decision-goroutine discipline, and
// wall-clock hygiene in seeded packages).
//
// Three modes:
//
//	adaedge-lint -run [packages]        # run the suite, print per-analyzer
//	                                    # counts, exit 0/1/2
//	adaedge-lint -escape [-escape-update]
//	                                    # escape gate: diff -gcflags=-m heap
//	                                    # escapes against ESCAPES.baseline
//	go vet -vettool=adaedge-lint ./...  # raw vettool (CI, editors)
//
// -run and -escape exit 0 clean / 1 findings / 2 error.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/lint"
)

func main() {
	if len(os.Args) > 1 {
		switch strings.TrimLeft(os.Args[1], "-") {
		case "escape":
			update := false
			for _, a := range os.Args[2:] {
				if strings.TrimLeft(a, "-") == "escape-update" {
					update = true
				}
			}
			os.Exit(lint.RunEscapeGate(os.Stdout, update))
		case "run":
			os.Exit(runSuite(os.Args[2:]))
		}
	}
	unitchecker.Main(lint.Analyzers...)
}

// vetDiag is one diagnostic in `go vet -json` output, keyed
// package → analyzer → diagnostics.
type vetDiag struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

// runSuite drives `go vet -vettool=<self> -json` over the requested
// packages (default ./...), prints every finding plus a per-analyzer
// summary, and maps the outcome onto the 0/1/2 exit convention.
func runSuite(pkgs []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaedge-lint: locating own binary: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}
	args := append([]string{"vet", "-vettool=" + self, "-json"}, pkgs...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	runErr := cmd.Run()

	// go vet -json streams one JSON object per package to stderr,
	// interleaved with `# pkgpath` marker lines; strip the markers and
	// decode the object stream.
	var payload bytes.Buffer
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		payload.WriteString(line)
		payload.WriteString("\n")
	}
	counts := make(map[string]int, len(lint.Analyzers))
	for _, az := range lint.Analyzers {
		counts[az.Name] = 0
	}
	total, parsed := 0, false
	dec := json.NewDecoder(&payload)
	for {
		var perPkg map[string]map[string][]vetDiag
		if err := dec.Decode(&perPkg); err != nil {
			break
		}
		parsed = true
		for _, byAnalyzer := range perPkg {
			for analyzer, diags := range byAnalyzer {
				counts[analyzer] += len(diags)
				total += len(diags)
				for _, d := range diags {
					fmt.Printf("%s: %s\n", d.Posn, d.Message)
				}
			}
		}
	}
	if runErr != nil && !parsed {
		// vet died before producing any JSON: a broken build or bad
		// invocation, not lint findings.
		fmt.Fprintf(os.Stderr, "adaedge-lint: go vet failed: %v\n%s", runErr, stderr.String())
		return 2
	}

	fmt.Printf("adaedge-lint: %d finding(s) across %d analyzers\n", total, len(lint.Analyzers))
	for _, az := range lint.Analyzers {
		fmt.Printf("  %-20s %d\n", az.Name, counts[az.Name])
	}
	if total > 0 {
		return 1
	}
	return 0
}
