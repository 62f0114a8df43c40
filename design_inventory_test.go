package repro

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// inventoryPathPrefixes are the roots whose backticked tokens in a
// DESIGN.md §1 row name a file or directory of this repository.
var inventoryPathPrefixes = []string{"internal/", "cmd/", "adaedge/", "examples/"}

// TestDesignInventoryPaths pins DESIGN.md §1 to the tree: every repo path
// a system-inventory row names must exist, so a row cannot outlive the
// code it describes.
func TestDesignInventoryPaths(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "## 1. System inventory")
	if start < 0 {
		t.Fatal("DESIGN.md has no §1 System inventory")
	}
	section := doc[start:]
	if end := strings.Index(section, "\n## 2."); end >= 0 {
		section = section[:end]
	}
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range backtickRE.FindAllStringSubmatch(line, -1) {
			path := m[1]
			if !slices.ContainsFunc(inventoryPathPrefixes, func(p string) bool { return strings.HasPrefix(path, p) }) {
				continue
			}
			checked++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("DESIGN.md §1 names %s, which does not exist:\n%s", path, line)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no repo paths found in DESIGN.md §1; has the table format changed?")
	}
}
