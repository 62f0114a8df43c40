package core

import (
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
)

// FrameSender consumes transmitted segment frames;
// *transport.ResilientUplink implements it. Abstracted so tests can
// capture frames without sockets.
type FrameSender interface {
	Send(transport.Frame) error
}

// DrainTo offloads the backlog through a framed sender — Drain plus the
// actual network protocol of §IV-B1. A segment leaves the engine only once
// the sender has taken it: the one it rejects and everything after it stay
// stored as they were, sketch, cached loss and recoding order included, and
// the returned report covers only what was actually shipped.
func (e *OfflineEngine) DrainTo(sender FrameSender, bw sim.Bandwidth, seconds float64) (DrainReport, error) {
	return e.drain(bw, seconds, func(en *store.Entry) error {
		return sender.Send(transport.Frame{ID: en.ID, Label: en.Label, Enc: en.Enc})
	})
}
