package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// spanFileSegments is how many segments of each traced phase (its last
// ones) go to the span file: enough to read a timeline, small enough to
// open.
const spanFileSegments = 8192

// span is one record of the span file. ID is the record's 1-based
// position; Parent is the ID of the span that caused it, 0 for a root.
// Spans of one segment share Segment.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Segment uint64 `json:"segment"`
}

// spanLog keeps the bench-side spans in memory until the run ends. A nil
// log records nothing, so call sites need no guard.
type spanLog struct {
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{spans: make([]span, 0, 2*5*spanFileSegments+256)}
}

func (l *spanLog) add(name string, parent int, segment uint64, start, end int64) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, name, start, end, parent, segment})
	return id
}

// writeFile writes one JSON object per line.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
