// Package decodepkg is a nopanicdecode fixture: decode-path entry points
// and their helpers seeded with panics, dropped errors and unvalidated
// decoded lengths, next to the legal validated patterns.
package decodepkg

import (
	"encoding/binary"
	"errors"
)

var errCorrupt = errors.New("corrupt")

// Decompress is a decode entry point by name.
func Decompress(data []byte) ([]byte, error) {
	if len(data) == 0 {
		panic("empty input") // want `panic on decode path Decompress`
	}
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errCorrupt
	}
	out := make([]byte, n) // want `make sized by decoded length "n"`
	flush(out)             // want `error result of flush discarded on decode path Decompress`
	_ = flush(out)         // want `error result of flush assigned to _ on decode path Decompress`
	return out, nil
}

// DecodeSlice exercises the slice-bound sink.
func DecodeSlice(data []byte) ([]byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errCorrupt
	}
	return data[:n], nil // want `slice bound uses decoded length "n"`
}

// DecodeChecked is the sanctioned pattern: bounds-check, then use.
func DecodeChecked(data []byte) ([]byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > 1<<20 {
		return nil, errCorrupt
	}
	out := make([]byte, n)
	if err := flush(out); err != nil {
		return nil, err
	}
	return out, nil
}

// body does not match the entry-point name heuristic; it is checked only
// because DecodeOuter reaches it, proving the call-graph closure.
func body(data []byte) {
	if len(data) > 1<<30 {
		panic("too big") // want `panic on decode path body`
	}
}

// DecodeOuter pulls body onto a decode path.
func DecodeOuter(data []byte) ([]byte, error) {
	body(data)
	return data, nil
}

// Unrelated is not reachable from any decode entry point: its panic is
// legal (e.g. a constructor assertion).
func Unrelated(arms int) {
	if arms <= 0 {
		panic("invalid arm count")
	}
}

// DecodeCounted is mutant NP3 of the mutation table in DESIGN.md §7: it
// drops the count reader's error, so a zero or oversized count is no longer
// rejected. Nothing panics, so no decoder test or fuzz corpus notices; this
// analyzer is the only check that catches it.
func DecodeCounted(data []byte) (int, error) {
	n, _ := readCount(data) // want `error result of readCount assigned to _ on decode path DecodeCounted`
	return n, nil
}

func readCount(data []byte) (int, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || n > 1<<20 {
		return 0, errCorrupt
	}
	return int(n), nil
}

func flush([]byte) error { return nil }
