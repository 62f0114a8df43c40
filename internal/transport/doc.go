// Package transport ships compressed segments over a network connection —
// the egress stage of AdaEdge's online mode ("we send out those segments
// through a network protocol", paper §IV-B1). The wire format is a
// varint-framed stream of self-describing segments carrying the codec
// metadata the receiver needs to decompress (paper §IV-C: "each segment …
// is associated with metadata describing its compression configurations").
//
// Frame layout (one frame per segment; transport.go has the details):
//
//	tag | [uvarint len(codec) | codec] | [zigzag ID delta] | zigzag label |
//	[uvarint trace] | [uvarint N] | uvarint len(data) | data
//
// The header is stateful per connection: the tag byte holds a slot in a
// codec-name dictionary both ends build in first-use order, and flag bits
// saying which of the bracketed fields are present. A frame that repeats
// the previous codec and N and has the next ID spends three header bytes.
// The first frame of a stream carries everything, so each connection is
// self-describing and a redial needs no negotiation.
//
// A Reader reads every payload into one buffer of its own, so a received
// Frame's Enc.Data is valid until the next Recv — in a Collector sink,
// until the sink returns, like the decoded values beside it. Copy what
// you keep. Steady-state Send and Recv allocate nothing.
//
// # Reliable delivery
//
// ResilientUplink (resilient.go) layers fault tolerance on top: frames
// are journaled into a bounded Spool before any network I/O, a single
// pump goroutine sends them (pipelined and written per burst; frame→ACK
// lockstep with ResilientConfig.AckEvery 1) and applies the ACKs its
// reader goroutine hands it, and on any error the uplink redials with
// seeded exponential-backoff jitter, sends the first unacknowledged frame
// again and goes on from the watermark its ACK carries. There is one
// session protocol (wire.go). Collector (server.go) is the receiving
// side: a per-device ACK watermark makes redelivered frames idempotent,
// so the pair provides exactly-once delivery to the sink (DESIGN.md §8).
//
// # Observability
//
// ResilientConfig.Obs instruments the uplink (dial/send/ack/backoff
// counters, spool-depth and RTT histograms, and one trace event per
// lifecycle transition, all emitted from the pump goroutine in order);
// Collector.Instrument attaches the receiving side (frame, duplicate and
// bad-connection counters plus deliver/redeliver events). Event fields
// carry no wall clocks, so seeded lockstep chaos runs compare traces
// byte-for-byte (DESIGN.md §9).
package transport
