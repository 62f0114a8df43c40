// Package store implements AdaEdge's segment management (paper §IV-F): the
// compressed buffer pool and pluggable compression-ordering policies
// behind the standard GET/PUT API, with the paper's LRU-based policy as the
// default and a round-robin (RRDTool-style oldest-first) policy for
// comparison.
//
// A Policy keys on dense slots that its owner assigns, so it keeps its
// state in slices rather than maps. The offline engine stores segments in
// its own ID-ordered rows, 64 bytes and pointer-free, and drives a Policy
// with their slots; Pool does the same for callers that key segments by
// ID: Put admits an Entry, Victim returns the policy's next recoding
// candidate and Touch moves it to the back. Entries carry the
// codec metadata and recode level the cascade needs, plus an optional
// Sketch: the few values the engine's objective and arm mask need of the
// raw segment, taken once at ingest in place of a raw copy and never
// charged against the storage budget or persisted. The engine builds an
// Entry from its row only where a segment leaves it (EachEntry, Drain,
// SaveTo), so the Entry, Sketch included, is the caller's own. Pool,
// Spool and Watermarks are mutex-guarded and safe for concurrent use; a Policy belongs to its owner's goroutine. Iteration
// order and victim selection are deterministic functions of the access
// history, keeping seeded runs reproducible (DESIGN.md §7).
package store
