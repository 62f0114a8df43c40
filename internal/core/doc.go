// Package core implements the AdaEdge framework itself (paper §IV): the
// online engine that selects compression under a bandwidth-derived target
// ratio, the offline engine that evolves stored data within a storage
// budget via cascade recoding, the optimization-target machinery (single
// and weighted complex targets), and the bandit wiring that learns which
// codec wins for the current data and workload.
//
// # Engines
//
// OnlineEngine (online.go) handles the continuously connected case: every
// segment must leave through a link of capacity B while being ingested at
// rate I, yielding the target ratio R = B/(64×I). Lossless compression is
// preferred; when R is losslessly infeasible a dedicated lossy-selection
// bandit takes over. OfflineEngine (offline.go) handles the disconnected
// case: segments accumulate under a storage budget and are cascade-recoded
// to roughly half size when usage crosses the threshold θ, with a
// per-ratio-range bandit pool choosing the lossy codec. It keeps no raw
// data: what later recodes need of a segment (the objective's answers on
// it, each arm's smallest reachable ratio) is taken once at ingest into a
// few-dozen-byte sketch on the entry (DESIGN.md §5).
//
// # Concurrency
//
// Both engines follow one contract: decisions are single-goroutine,
// snapshots are concurrent. Process (online) and Ingest (offline) must be
// called from one goroutine at a time; Retarget, TargetRatio, Stats,
// Snapshot and the estimate accessors may be called from anywhere, and the
// accessors return deep copies. An engine is driven on the caller's
// goroutine and never uses more than one core; more cores mean more
// share-nothing engines, one per independent signal and per goroutine
// (DESIGN.md §7).
//
// # Observability
//
// Config.Obs attaches the internal/obs substrate: per-codec trial-latency
// histograms, selection counters and gauges, and one decision-trace event
// per segment (online) or ingest/recode (offline), interleaved with the
// bandit's select/update events. All events are emitted on the decision
// goroutine and carry no wall-clock fields, so a seeded run reproduces
// the identical trace every time (DESIGN.md §9). A nil
// observer disables everything at the cost of one branch per call site.
package core
