package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/obs"
)

// writeHello writes the session hello for deviceID straight to w, as a
// device's first write on a connection.
func writeHello(w io.Writer, deviceID, ackEvery uint64) error {
	_, err := w.Write(appendHello(nil, deviceID, ackEvery))
	return err
}

func sampleFrames(t *testing.T, n int) ([]Frame, [][]float64) {
	t.Helper()
	reg := compress.DefaultRegistry(4)
	X, y := datasets.CBF(n, datasets.CBFConfig{Seed: 5})
	names := reg.Names()
	frames := make([]Frame, n)
	for i, row := range X {
		codec, _ := reg.Lookup(names[i%len(names)])
		var enc compress.Encoded
		var err error
		if lc, ok := codec.(compress.LossyCodec); ok {
			enc, err = lc.CompressRatio(row, 0.3)
			if err != nil {
				enc, err = compress.Compress(codec, row)
			}
		} else {
			enc, err = compress.Compress(codec, row)
		}
		if err != nil {
			t.Fatalf("%s: %v", codec.Name(), err)
		}
		frames[i] = Frame{ID: uint64(i), Label: y[i], Enc: enc}
	}
	return frames, X
}

func TestFrameRoundTrip(t *testing.T) {
	frames, _ := sampleFrames(t, 17) // one per codec
	r := NewReader(bytes.NewReader(writeFrames(t, frames...)))
	for i, want := range frames {
		got, err := r.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, want) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Recv(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestFrameNegativeLabel(t *testing.T) {
	f := Frame{ID: 3, Label: -1, Enc: compress.Encoded{Codec: "paa", Data: []byte{1}, N: 1}}
	got, err := NewReader(bytes.NewReader(writeFrames(t, f))).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != -1 {
		t.Fatalf("label = %d", got.Label)
	}
}

// goldenFrames is the fixed stream the layout tests pin: a first frame, an
// in-order repeat, a switch to a new codec name, a switch back to a known
// slot, and a traced frame with a backwards ID and a new N.
var goldenFrames = []Frame{
	smallFrame(7),
	smallFrame(8),
	{ID: 9, Label: -1, Enc: compress.Encoded{Codec: "gorilla", Data: []byte{9, 9}, N: 4}},
	smallFrame(10),
	{ID: 3, Label: 2, Trace: 4, Enc: compress.Encoded{Codec: "paa", Data: []byte{1}, N: 128}},
}

// goldenWire is goldenFrames on the wire, one frame per line.
var goldenWire = [][]byte{
	// tag inline|ID|N, len "paa", zigzag(7-0), zigzag(1), N 4, len 4, data
	{0xdf, 3, 'p', 'a', 'a', 14, 2, 4, 4, 7, 1, 2, 3},
	// tag slot 0, label, len, data: the three-byte steady-state header
	{0x00, 2, 4, 8, 1, 2, 3},
	// tag inline, len "gorilla", zigzag(-1), len 2, data (ID and N implied)
	{0x1f, 7, 'g', 'o', 'r', 'i', 'l', 'l', 'a', 1, 2, 9, 9},
	{0x00, 2, 4, 10, 1, 2, 3},
	// tag slot 0|traced|ID|N, zigzag(3-11), zigzag(2), trace 4, N 128, len 1, data
	{0xe0, 15, 4, 4, 0x80, 1, 1, 1},
}

// writeFrames runs frames through a fresh Writer and returns the bytes.
func writeFrames(t testing.TB, frames ...Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, f := range frames {
		if err := w.Send(f); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameFrame(a, b Frame) bool {
	return a.ID == b.ID && a.Label == b.Label && a.Trace == b.Trace &&
		a.Enc.Codec == b.Enc.Codec && a.Enc.N == b.Enc.N && bytes.Equal(a.Enc.Data, b.Enc.Data)
}

// TestFrameGoldenStream pins the wire layout byte for byte, and that the
// reader inverts it.
func TestFrameGoldenStream(t *testing.T) {
	want := bytes.Join(goldenWire, nil)
	got := writeFrames(t, goldenFrames...)
	if !bytes.Equal(got, want) {
		t.Fatalf("golden stream drifted:\n got %x\nwant %x", got, want)
	}
	r := NewReader(bytes.NewReader(want))
	for i, f := range goldenFrames {
		rt, err := r.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(rt, f) {
			t.Fatalf("frame %d = %+v, want %+v", i, rt, f)
		}
	}
	if _, err := r.Recv(); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// TestFrameSteadyStateHeaderSize: an in-order frame repeating the previous
// codec and N, with a label in [-64, 63] and a payload under 128 bytes,
// costs exactly three header bytes.
func TestFrameSteadyStateHeaderSize(t *testing.T) {
	for _, label := range []int{-64, -1, 0, 63} {
		for _, size := range []int{0, 88, 127} {
			f := Frame{ID: 41, Label: label, Enc: compress.Encoded{Codec: "bufflossy", Data: make([]byte, size), N: 128}}
			next := f
			next.ID++
			one, both := len(writeFrames(t, f)), len(writeFrames(t, f, next))
			if header := both - one - size; header != 3 {
				t.Errorf("label %d, payload %d: %d header bytes, want 3", label, size, header)
			}
		}
	}
}

// TestFrameRoundTripRandomSequences is the property test: any frame
// sequence the Writer accepts comes back equal, including IDs that jump,
// go backwards or sit next to MaxUint64, N changes, and more distinct
// codec names than the dictionary holds.
func TestFrameRoundTripRandomSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	names := make([]string, maxCodecSlots+9)
	for i := range names {
		names[i] = "codec-" + strings.Repeat("x", i%5) + string(rune('A'+i))
	}
	names[3] = strings.Repeat("n", 255)
	for seq := 0; seq < 200; seq++ {
		frames := make([]Frame, 1+rng.Intn(80))
		var id uint64
		n := rng.Intn(300)
		for i := range frames {
			switch rng.Intn(8) {
			case 0:
				id = rng.Uint64()
			case 1:
				id = math.MaxUint64 - uint64(rng.Intn(3))
			case 2:
				id -= uint64(rng.Intn(1000))
			case 3:
				id += uint64(rng.Intn(1000))
			default:
				id++
			}
			if rng.Intn(6) == 0 {
				n = rng.Intn(maxFramePoints + 1)
			}
			f := Frame{ID: id, Label: rng.Intn(400) - 200}
			if rng.Intn(3) == 0 {
				f.Trace = rng.Uint64()
			}
			// Early sequences stay inside the dictionary, later ones
			// overflow it.
			f.Enc.Codec = names[rng.Intn(1+(seq*len(names))/200)]
			f.Enc.N = n
			f.Enc.Data = make([]byte, rng.Intn(300))
			rng.Read(f.Enc.Data)
			frames[i] = f
		}
		r := NewReader(bytes.NewReader(writeFrames(t, frames...)))
		for i, want := range frames {
			got, err := r.Recv()
			if err != nil {
				t.Fatalf("sequence %d frame %d: %v", seq, i, err)
			}
			if !sameFrame(got, want) {
				t.Fatalf("sequence %d frame %d = %+v, want %+v", seq, i, got, want)
			}
		}
		if _, err := r.Recv(); err != io.EOF {
			t.Fatalf("sequence %d: want io.EOF at stream end, got %v", seq, err)
		}
	}
}

// TestFrameRejectsBadInput: hostile bytes are ErrBadFrame, never a panic
// and never a frame.
func TestFrameRejectsBadInput(t *testing.T) {
	first := goldenWire[0]
	longName := append([]byte{0xdf, 0x80, 0x02}, bytes.Repeat([]byte{'n'}, 256)...)
	cases := map[string][]byte{
		"first frame names a slot":         {0xc3, 14, 2, 4, 0},
		"slot never defined":               append(append([]byte(nil), first...), 0x01, 2, 0),
		"first frame without ID and N":     {0x1f, 3, 'p', 'a', 'a', 2, 0},
		"first frame without ID":           {0x9f, 3, 'p', 'a', 'a', 2, 4, 0},
		"first frame without N":            {0x5f, 3, 'p', 'a', 'a', 14, 2, 0},
		"zero-length inline name":          {0xdf, 0, 14, 2, 4, 0},
		"256-byte inline name":             append(longName, 14, 2, 4, 0),
		"name length overflows uvarint":    append([]byte{0xdf}, bytes.Repeat([]byte{0xff}, 11)...),
		"payload length past maxFrameData": {0xdf, 3, 'p', 'a', 'a', 14, 2, 4, 0x81, 0x80, 0x80, 0x80, 0x04},
		"truncated after the tag":          {0xdf},
	}
	for name, data := range cases {
		r := NewReader(bytes.NewReader(data))
		var err error
		for i := 0; err == nil && i < 8; i++ {
			_, err = r.Recv()
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
	// Empty codec name rejected at send time.
	if err := NewWriter(io.Discard).Send(Frame{}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
}

// TestFrameTruncatedEverywhere cuts the golden stream at every byte
// offset: a cut between frames is a clean io.EOF after the frames before
// it, a cut anywhere else is ErrBadFrame.
func TestFrameTruncatedEverywhere(t *testing.T) {
	full := bytes.Join(goldenWire, nil)
	boundary := map[int]int{0: 0} // offset → frames before it
	for i, off := 0, 0; i < len(goldenWire); i++ {
		off += len(goldenWire[i])
		boundary[off] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		frames := 0
		var err error
		for {
			if _, err = r.Recv(); err != nil {
				break
			}
			frames++
		}
		if want, clean := boundary[cut]; clean {
			if err != io.EOF || frames != want {
				t.Errorf("cut at %d: %d frames then %v, want %d then io.EOF", cut, frames, err, want)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Errorf("cut at %d: want ErrBadFrame, got %v", cut, err)
		}
	}
}

func TestFrameTruncatedMidPayload(t *testing.T) {
	data := writeFrames(t, Frame{ID: 1, Enc: compress.Encoded{Codec: "paa", Data: make([]byte, 100), N: 10}})
	r := NewReader(bytes.NewReader(data[:len(data)-10]))
	if _, err := r.Recv(); err == nil || err == io.EOF {
		t.Fatalf("truncated payload accepted: %v", err)
	}
}

// TestRecvPayloadAliasesReaderBuffer pins the ownership contract from both
// sides: a payload is intact until the next Recv, the next Recv is allowed
// to overwrite it (so retaining means copying), and a payload past
// maxKeptPayload gets a buffer of its own that the Reader does not keep.
func TestRecvPayloadAliasesReaderBuffer(t *testing.T) {
	frame := func(id uint64, size int, fill byte) Frame {
		return Frame{ID: id, Enc: compress.Encoded{Codec: "paa", Data: bytes.Repeat([]byte{fill}, size), N: 1}}
	}
	frames := []Frame{frame(0, 100, 'a'), frame(1, 100, 'b'), frame(2, maxKeptPayload+1, 'c'), frame(3, 40, 'd')}
	r := NewReader(bytes.NewReader(writeFrames(t, frames...)))
	first, err := r.Recv()
	if err != nil || !sameFrame(first, frames[0]) {
		t.Fatalf("frame 0 = %+v, %v", first, err)
	}
	second, err := r.Recv()
	if err != nil || !sameFrame(second, frames[1]) {
		t.Fatalf("frame 1 = %+v, %v", second, err)
	}
	if &first.Enc.Data[0] != &second.Enc.Data[0] || first.Enc.Data[0] != 'b' {
		t.Fatal("the second Recv did not reuse the first one's buffer")
	}
	big, err := r.Recv()
	if err != nil || !sameFrame(big, frames[2]) {
		t.Fatalf("frame 2: %d payload bytes, %v", len(big.Enc.Data), err)
	}
	if cap(r.buf) > maxKeptPayload {
		t.Fatalf("the Reader kept a %d-byte buffer after a %d-byte payload", cap(r.buf), len(big.Enc.Data))
	}
	last, err := r.Recv()
	if err != nil || !sameFrame(last, frames[3]) {
		t.Fatalf("frame 3 = %+v, %v", last, err)
	}
	if !sameFrame(big, frames[2]) {
		t.Fatal("a one-off payload was overwritten by the next Recv")
	}
}

// hostileLength is a first frame whose length field claims maxFrameData
// with ten payload bytes behind it.
func hostileLength() []byte {
	b := []byte{tagInline | tagID | tagN, 3, 'p', 'a', 'a', 0, 0, 1}
	b = binary.AppendUvarint(b, maxFrameData)
	return append(b, "ten bytes."...)
}

// allocatedBy returns the heap bytes fn allocated, live or not.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileAllocBound is what one Reader may allocate on bytes nothing
// vouches for: its bufio buffer, one payloadStep, and slack for the error.
const hostileAllocBound = 1 << 20

// TestRecvHostileLengthAllocatesBySteps: memory follows the bytes that
// arrive, not the length field in front of them.
func TestRecvHostileLengthAllocatesBySteps(t *testing.T) {
	var err error
	got := allocatedBy(func() { _, err = NewReader(bytes.NewReader(hostileLength())).Recv() })
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
	if got >= hostileAllocBound {
		t.Fatalf("a 1 GiB length field in front of 10 bytes allocated %d bytes, want < %d", got, hostileAllocBound)
	}
	// A payload that does arrive is read whole, however many steps it takes.
	want := Frame{ID: 5, Enc: compress.Encoded{Codec: "paa", Data: make([]byte, 5*payloadStep+123), N: 1}}
	rand.New(rand.NewSource(18)).Read(want.Enc.Data)
	f, err := NewReader(bytes.NewReader(writeFrames(t, want))).Recv()
	if err != nil || !sameFrame(f, want) {
		t.Fatalf("%d-byte payload: got %d bytes, %v", len(want.Enc.Data), len(f.Enc.Data), err)
	}
}

// rawFrameWithN builds first-frame bytes whose point-count uvarint the
// Writer would refuse to produce, so the Reader's own bound is what gets
// tested.
func rawFrameWithN(n uint64) []byte {
	b := []byte{tagInline | tagID | tagN, 3, 'p', 'a', 'a'}
	b = binary.AppendUvarint(b, zigzag(7)) // id
	b = binary.AppendUvarint(b, zigzag(1)) // label
	b = binary.AppendUvarint(b, n)         // point count under test
	return append(b, 0)                    // empty payload
}

// TestRecvRejectsHostilePointCount is the regression for the unvalidated
// wire-supplied N: a count that cannot fit the decoder's arithmetic must
// be rejected as a bad frame, not stored into Encoded.N.
func TestRecvRejectsHostilePointCount(t *testing.T) {
	for _, n := range []uint64{math.MaxUint64, 1 << 40, maxFramePoints + 1} {
		_, err := NewReader(bytes.NewReader(rawFrameWithN(n))).Recv()
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("N=%d: want ErrBadFrame, got %v", n, err)
		}
	}
	// The bound itself is still a legal frame.
	f, err := NewReader(bytes.NewReader(rawFrameWithN(maxFramePoints))).Recv()
	if err != nil {
		t.Fatalf("N at bound rejected: %v", err)
	}
	if f.Enc.N != maxFramePoints || f.ID != 7 || f.Label != 1 {
		t.Fatalf("frame = %+v, want ID 7, label 1, N %d", f, maxFramePoints)
	}
}

func TestSendRejectsBadPointCount(t *testing.T) {
	w := NewWriter(io.Discard)
	for _, n := range []int{-1, maxFramePoints + 1} {
		err := w.Send(Frame{Enc: compress.Encoded{Codec: "paa", N: n}})
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("N=%d: want ErrBadFrame, got %v", n, err)
		}
	}
}

func TestAckRoundTripAndTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeAck(&buf, 42); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), buf.Bytes()...)
	next, err := readAck(bufio.NewReader(bytes.NewReader(full)))
	if err != nil || next != 42 {
		t.Fatalf("round trip: next=%d err=%v", next, err)
	}
	// Every mid-ACK truncation is a bad frame, never a silent zero.
	for i := 1; i < len(full); i++ {
		if _, err := readAck(bufio.NewReader(bytes.NewReader(full[:i]))); !errors.Is(err, ErrBadFrame) {
			t.Errorf("truncated at %d: want ErrBadFrame, got %v", i, err)
		}
	}
	// A clean end of stream is io.EOF, and a foreign magic is a bad frame.
	if _, err := readAck(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	if _, err := readAck(bufio.NewReader(bytes.NewReader([]byte("AEH1\x00")))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("foreign magic: want ErrBadFrame, got %v", err)
	}
}

// failingReader fails every Read with err, the way a dropped link does.
type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestBadFrameErrorFormatsLazily: a read that fails under the wire costs
// one allocation, the error, and is formatted only when printed, into the
// text fmt.Errorf("%w: %v", ErrBadFrame, cause) gave. errors.Is and
// errors.As see ErrBadFrame and not the cause, as they did then.
func TestBadFrameErrorFormatsLazily(t *testing.T) {
	cause := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}
	br := bufio.NewReader(failingReader{cause})
	_, err := readAck(br)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want ErrBadFrame, got %v", err)
	}
	var op *net.OpError
	if errors.As(err, &op) {
		t.Error("the read error is reachable through errors.As; it used to be message text only")
	}
	if got, want := err.Error(), "transport: bad frame: read tcp: connection reset by peer"; got != want {
		t.Errorf("message %q, want %q", got, want)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := readAck(br); err == nil {
			t.Fatal("read from a failing link succeeded")
		}
	}); got > 1 {
		t.Errorf("a failed ACK read allocates %v/op, want at most 1", got)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHello(&buf, 7, 32); err != nil {
		t.Fatal(err)
	}
	if want := []byte{'A', 'E', 'H', '1', 2, 7, 32}; !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("hello bytes % x, want % x", buf.Bytes(), want)
	}
	h, err := readHello(bufio.NewReader(&buf))
	if err != nil || h.deviceID != 7 || h.ackEvery != 32 {
		t.Fatalf("round trip: %+v err=%v", h, err)
	}
	// Any other protocol version is rejected up front, the retired
	// lockstep version 1 included.
	for _, bad := range [][]byte{{'A', 'E', 'H', '1', 3, 99, 0}, {'A', 'E', 'H', '1', 1, 99}, {'A', 'E', 'H', '1', 1, 99, 0}} {
		if _, err := readHello(bufio.NewReader(bytes.NewReader(bad))); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "hello version") {
			t.Fatalf("version %d: want ErrBadFrame naming the version, got %v", bad[4], err)
		}
	}
	// A hello torn mid-version reports the read failure, not a bogus
	// "version 0" (the readHello error-conflation regression).
	torn := []byte{'A', 'E', 'H', '1'}
	_, err = readHello(bufio.NewReader(bytes.NewReader(torn)))
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn hello: want ErrBadFrame, got %v", err)
	}
	if !strings.Contains(err.Error(), "reading hello version") || strings.Contains(err.Error(), "version 0") {
		t.Fatalf("torn hello error conflates read failure with version mismatch: %v", err)
	}
	// Torn mid-deviceID and mid-ackEvery are likewise diagnosable reads.
	if _, err := readHello(bufio.NewReader(bytes.NewReader([]byte{'A', 'E', 'H', '1', 2}))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn device id: want ErrBadFrame, got %v", err)
	}
	if _, err := readHello(bufio.NewReader(bytes.NewReader([]byte{'A', 'E', 'H', '1', 2, 7}))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("torn ack interval: want ErrBadFrame, got %v", err)
	}
}

// TestCollectorServeGuards is the regression for Serve silently
// overwriting the live listener: a second Serve and a Serve after Close
// must fail loudly.
func TestCollectorServeGuards(t *testing.T) {
	col := NewCollector(nil, nil)
	if _, err := col.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Serve("127.0.0.1:0"); !errors.Is(err, ErrCollectorServing) {
		t.Fatalf("second Serve: want ErrCollectorServing, got %v", err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Serve("127.0.0.1:0"); !errors.Is(err, ErrCollectorClosed) {
		t.Fatalf("Serve after Close: want ErrCollectorClosed, got %v", err)
	}
}

// waitFrames polls until the collector has delivered n frames.
func waitFrames(t *testing.T, col *Collector, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for col.Frames() < n {
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d frames", col.Frames(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialTimeoutRefused: a dead collector address costs the device a
// failed dial, not a hang, and the frame stays spooled.
func TestDialTimeoutRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	up, err := DialResilient(ResilientConfig{
		Addr: addr, DialTimeout: 500 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.Send(smallFrame(0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for up.Stats().DialFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dial to a closed port never failed")
		}
		time.Sleep(time.Millisecond)
	}
	if st := up.Stats(); st.Pending != 1 || st.FramesSent != 0 {
		t.Fatalf("stats after refused dials = %+v, want the frame still spooled", st)
	}
}

func TestUplinkWriteTimeout(t *testing.T) {
	col := NewCollector(compress.DefaultRegistry(4), nil)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	up, err := DialResilient(ResilientConfig{Addr: addr.String(), WriteTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	frames, _ := sampleFrames(t, 3)
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, len(frames))
}

func TestCollectorEndToEnd(t *testing.T) {
	reg := compress.DefaultRegistry(4)
	var mu sync.Mutex
	received := map[uint64][]float64{}
	col := NewCollector(reg, func(f Frame, values []float64) {
		mu.Lock()
		// values is only valid during the callback (pooled decode
		// buffers) — retaining requires a copy.
		received[f.ID] = append([]float64(nil), values...)
		mu.Unlock()
	})
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	frames, raws := sampleFrames(t, 12)
	up, err := DialResilient(ResilientConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	for _, f := range frames {
		if err := up.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.WaitDrain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFrames(t, col, len(frames))
	mu.Lock()
	defer mu.Unlock()
	for i, f := range frames {
		vals, ok := received[f.ID]
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if len(vals) != len(raws[i]) {
			t.Fatalf("frame %d decoded to %d values", i, len(vals))
		}
	}
}

// TestCollectorSurvivesGarbageConnection: a connection that does not open
// with a hello (here, frames with no hello in front) is dropped as a bad
// connection without affecting the next one; a connection that closes
// before its first byte is not counted at all.
func TestCollectorSurvivesGarbageConnection(t *testing.T) {
	o := obs.New(0)
	col := NewCollector(compress.DefaultRegistry(4), nil).Instrument(o)
	addr, err := col.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	for i, garbage := range [][]byte{nil, []byte("not a frame at all"), writeFrames(t, smallFrame(0))} {
		conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(garbage); err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
		deadline := time.Now().Add(5 * time.Second)
		for badConns(o) < int64(i) {
			if time.Now().After(deadline) {
				t.Fatalf("bad connections = %d after %d garbage streams", badConns(o), i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	s := dialSession(t, addr.String(), 1)
	defer s.conn.Close()
	for i := uint64(0); i < 2; i++ {
		s.send(t, smallFrame(i))
		if next := s.ack(t); next != i+1 {
			t.Fatalf("ack after garbage connections = %d, want %d", next, i+1)
		}
	}
	if got := badConns(o); got != 2 {
		t.Fatalf("bad connections = %d, want 2 (the empty one is not malformed)", got)
	}
	if col.Frames() != 2 {
		t.Fatalf("frames = %d, want 2: a hello-less stream must deliver nothing", col.Frames())
	}
}

func TestCollectorCloseIdempotent(t *testing.T) {
	col := NewCollector(nil, nil)
	if _, err := col.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}
