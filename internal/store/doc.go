// Package store implements AdaEdge's segment management (paper §IV-F): the
// compressed buffer pool and pluggable compression-ordering policies
// behind the standard GET/PUT API, with the paper's LRU-based policy as the
// default and a round-robin (RRDTool-style oldest-first) policy for
// comparison.
//
// Pool is the compressed-segment home: Put admits an Entry, Get retrieves
// it (touching LRU recency), and Victim hands the policy's next recoding
// candidate to the offline engine's cascade. Entries carry the codec
// metadata and recode level the cascade needs, plus an optional Sketch:
// the few values the engine's objective and arm mask need of the raw
// segment, taken once at ingest in place of a raw copy and never charged
// against the storage budget or persisted. All containers are mutex-guarded
// and safe for concurrent use; iteration order and victim selection are
// deterministic functions of the access history, keeping seeded runs
// reproducible (DESIGN.md §7).
package store
