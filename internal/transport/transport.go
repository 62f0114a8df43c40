package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/compress"
)

// Frame is one transmitted segment.
type Frame struct {
	// ID is the segment id on the sending device.
	ID uint64
	// Label is the segment's class label (-1 when unknown).
	Label int
	// Trace is the span identity joining this frame's collector-side
	// delivery to its device-side lifecycle (see internal/obs). Zero
	// means "no trace" and costs nothing on the wire; a non-zero trace
	// sets the tag's traced bit and rides as one uvarint after the label.
	Trace uint64
	// Enc is the compressed representation plus codec metadata. On a frame
	// a Reader returned, Enc.Data is the Reader's own buffer: valid until
	// the next Recv on it (for a collector sink, until the sink returns);
	// copy to retain.
	Enc compress.Encoded
}

// Frame layout. The header is stateful per stream: Writer and Reader each
// remember the previous frame's ID and N and a dictionary of the codec
// names seen so far, and a frame carries only what differs.
//
//	tag | [uvarint len(codec) | codec] | [zigzag ID delta] | zigzag label |
//	[uvarint trace] | [uvarint N] | uvarint len(data) | data
//
// The tag's low five bits are a codec slot; tagInline means the name
// follows inline instead. Both ends give an inline name the next free slot,
// in first-use order, until the dictionary is full; later new names stay
// inline. The ID is written (as the zigzag distance from previous ID + 1)
// only when it is not previous ID + 1, N only when it differs from the
// previous frame's. The first frame of a stream has no previous frame, so
// it carries both and an inline name: every stream is self-describing from
// its first byte, which is what lets a redial resume without negotiation.
const (
	tagSlotMask = 0x1f
	tagInline   = tagSlotMask // slot value meaning "name follows"
	tagTraced   = 0x20
	tagID       = 0x40
	tagN        = 0x80

	// maxCodecSlots bounds the per-stream codec dictionary.
	maxCodecSlots = tagInline
)

// ErrBadFrame is returned on malformed input.
var ErrBadFrame = errors.New("transport: bad frame")

// maxFrameData bounds a frame's payload against hostile length fields.
const maxFrameData = 1 << 30

// The length field is read before the payload and nothing vouches for it,
// so it may not size memory by itself. A payload that does not fit the
// Reader's buffer is read in steps, each no larger than what has already
// arrived (payloadStep for the first), and the buffer grows a step at a
// time, so it is never more than twice the bytes received or one
// payloadStep: a header claiming maxFrameData in front of ten bytes costs
// 64 KiB, not 1 GiB. And only the buffer for payloads up to maxKeptPayload
// stays with the Reader for the next frame; a larger payload gets one of
// its own, so one big frame does not pin its size for the rest of the
// session.
const (
	payloadStep    = 64 << 10
	maxKeptPayload = 4 * 4096 // four bufio buffers
)

// maxFramePoints bounds the wire-supplied point count N. The count is
// metadata (decoders allocate from it and Ratio/cost accounting divide by
// it), so a hostile uvarint up to 2^64-1 must not reach Encoded.N: it
// overflows int on 32-bit platforms and poisons every N-derived quantity.
// 1<<27 points is 1 GiB of raw float64s — matching maxFrameData — and
// comfortably fits an int32.
const maxFramePoints = 1 << 27

// streamState is the previous-frame state both ends of a stream keep.
type streamState struct {
	started bool
	nextID  uint64 // previous frame's ID + 1
	n       int    // previous frame's point count
	names   [maxCodecSlots]string
	slots   int // names[:slots] are assigned
}

// Writer frames segments onto an io.Writer.
type Writer struct {
	w   *bufio.Writer
	st  streamState
	hdr []byte // header scratch, reused across frames
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), hdr: make([]byte, 0, 64)}
}

// Send writes one frame. Call Flush (or Send more frames and then Flush)
// to push buffered bytes to the connection.
func (t *Writer) Send(f Frame) error {
	if len(f.Enc.Codec) == 0 || len(f.Enc.Codec) > 255 {
		return fmt.Errorf("%w: codec name %q", ErrBadFrame, f.Enc.Codec)
	}
	if f.Enc.N < 0 || f.Enc.N > maxFramePoints {
		return fmt.Errorf("%w: point count %d", ErrBadFrame, f.Enc.N)
	}
	st := &t.st
	slot := 0
	for slot < st.slots && st.names[slot] != f.Enc.Codec {
		slot++
	}
	tag := byte(slot)
	if slot == st.slots {
		tag = tagInline
	}
	if f.Trace != 0 {
		tag |= tagTraced
	}
	if !st.started || f.ID != st.nextID {
		tag |= tagID
	}
	if !st.started || f.Enc.N != st.n {
		tag |= tagN
	}
	b := append(t.hdr[:0], tag)
	if tag&tagSlotMask == tagInline {
		b = binary.AppendUvarint(b, uint64(len(f.Enc.Codec)))
		b = append(b, f.Enc.Codec...)
		if st.slots < maxCodecSlots {
			st.names[st.slots] = f.Enc.Codec
			st.slots++
		}
	}
	if tag&tagID != 0 {
		b = binary.AppendUvarint(b, zigzag(int64(f.ID-st.nextID)))
	}
	b = binary.AppendUvarint(b, zigzag(int64(f.Label)))
	if tag&tagTraced != 0 {
		b = binary.AppendUvarint(b, f.Trace)
	}
	if tag&tagN != 0 {
		b = binary.AppendUvarint(b, uint64(f.Enc.N))
	}
	b = binary.AppendUvarint(b, uint64(len(f.Enc.Data)))
	t.hdr = b
	st.started, st.nextID, st.n = true, f.ID+1, f.Enc.N
	// A write error leaves the reader's state behind the writer's, but
	// bufio.Writer errors are sticky: the stream is over either way.
	if _, err := t.w.Write(b); err != nil {
		return err
	}
	_, err := t.w.Write(f.Enc.Data)
	return err
}

// Flush pushes buffered frames downstream.
func (t *Writer) Flush() error { return t.w.Flush() }

// reset starts a new stream onto w in place: buffered bytes and a sticky
// write error are dropped, and the next frame is a first frame.
func (t *Writer) reset(w io.Writer) {
	t.w.Reset(w)
	t.st = streamState{}
}

// hello buffers a session hello ahead of the stream's frames. It is built
// in the buffer's free space, so nothing escapes through the io.Writer.
func (t *Writer) hello(deviceID, ackEvery uint64) error {
	_, err := t.w.Write(appendHello(t.w.AvailableBuffer(), deviceID, ackEvery))
	return err
}

// Reader parses frames from an io.Reader.
type Reader struct {
	r   *bufio.Reader
	st  streamState
	buf []byte // payload buffer, reused by every Recv
	// seen holds the codec names read inline so far, on this stream or one
	// before a reset, so a name read again costs no allocation. It keeps at
	// most maxCodecSlots of them, so hostile input cannot grow it.
	seen  [maxCodecSlots]string
	nseen int
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Recv reads the next frame. io.EOF signals a clean end of stream (the
// sender closed between frames); any mid-frame truncation is an error. The
// frame's Enc.Data aliases a buffer the next Recv overwrites, which is what
// keeps a steady-state Recv allocation-free: copy the payload to keep it.
func (t *Reader) Recv() (Frame, error) {
	tag, err := t.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, badFrame(err)
	}
	st := &t.st
	if !st.started && tag&(tagID|tagN) != tagID|tagN {
		return Frame{}, fmt.Errorf("%w: first frame leans on a previous one", ErrBadFrame)
	}
	var f Frame
	if slot := int(tag & tagSlotMask); slot != tagInline {
		if slot >= st.slots {
			return Frame{}, fmt.Errorf("%w: undefined codec slot %d", ErrBadFrame, slot)
		}
		f.Enc.Codec = st.names[slot]
	} else {
		nameLen, err := binary.ReadUvarint(t.r)
		if err != nil || nameLen == 0 || nameLen > 255 {
			return Frame{}, ErrBadFrame
		}
		// Peek, not ReadFull into a fresh slice: a name is copied at most
		// once, into the string the Reader keeps.
		name, err := t.r.Peek(int(nameLen))
		if err != nil {
			return Frame{}, badFrame(err)
		}
		f.Enc.Codec = t.intern(name)
		if _, err := t.r.Discard(len(name)); err != nil {
			return Frame{}, badFrame(err)
		}
		if st.slots < maxCodecSlots {
			st.names[st.slots] = f.Enc.Codec
			st.slots++
		}
	}
	f.ID = st.nextID
	if tag&tagID != 0 {
		delta, err := binary.ReadUvarint(t.r)
		if err != nil {
			return Frame{}, badFrame(err)
		}
		f.ID += uint64(unzigzag(delta))
	}
	labelZZ, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Frame{}, badFrame(err)
	}
	f.Label = int(unzigzag(labelZZ))
	if tag&tagTraced != 0 {
		if f.Trace, err = binary.ReadUvarint(t.r); err != nil {
			return Frame{}, badFrame(err)
		}
	}
	f.Enc.N = st.n
	if tag&tagN != 0 {
		n, err := binary.ReadUvarint(t.r)
		if err != nil {
			return Frame{}, badFrame(err)
		}
		if n > maxFramePoints {
			return Frame{}, fmt.Errorf("%w: point count %d", ErrBadFrame, n)
		}
		f.Enc.N = int(n)
	}
	dataLen, err := binary.ReadUvarint(t.r)
	if err != nil || dataLen > maxFrameData {
		return Frame{}, ErrBadFrame
	}
	if f.Enc.Data, err = t.readPayload(int(dataLen)); err != nil {
		return Frame{}, badFrame(err)
	}
	st.started, st.nextID, st.n = true, f.ID+1, f.Enc.N
	return f, nil
}

// intern returns name as a string: one already in seen when the Reader has
// read the name before, else a copy, which seen keeps while it has room.
func (t *Reader) intern(name []byte) string {
	for _, s := range t.seen[:t.nseen] {
		if s == string(name) {
			return s
		}
	}
	s := string(name)
	if t.nseen < len(t.seen) {
		t.seen[t.nseen] = s
		t.nseen++
	}
	return s
}

// reset starts a new stream in place: the next frame must be a first
// frame, and the codec slots are empty. The payload buffer and the names in
// seen stay for the next stream.
func (t *Reader) reset() { t.st = streamState{} }

// readPayload reads the next n bytes into the Reader's buffer, or into a
// one-off buffer when n is past maxKeptPayload, growing it as the bytes
// arrive (see payloadStep).
func (t *Reader) readPayload(n int) ([]byte, error) {
	kept := n <= maxKeptPayload
	var data []byte
	if kept {
		data = t.buf[:0]
	}
	for len(data) < n {
		have := len(data)
		step := min(n-have, max(have, payloadStep))
		if need := have + step; need > cap(data) {
			// At least twice the old capacity, so the kept buffer settles at
			// the stream's largest payload within a few frames.
			grown := make([]byte, have, max(need, 2*cap(data)))
			copy(grown, data)
			data = grown
		}
		data = data[:have+step]
		if _, err := io.ReadFull(t.r, data[have:]); err != nil {
			return nil, err
		}
	}
	if kept {
		t.buf = data
	}
	return data, nil
}

// badFrame reports a frame the stream tore under: ErrBadFrame, with the
// read error behind it in the message only.
func badFrame(err error) error { return &frameError{err} }

// frameError formats when asked, not when built: a dropped link fails
// reads by the thousand and hardly anyone prints them. It unwraps to
// ErrBadFrame alone, so errors.Is and errors.As see through it exactly
// what they saw through fmt.Errorf("%w: %v").
type frameError struct{ cause error }

func (e *frameError) Error() string { return ErrBadFrame.Error() + ": " + e.cause.Error() }
func (e *frameError) Unwrap() error { return ErrBadFrame }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
