package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
)

// FuzzFrameReader: arbitrary bytes must never panic the frame parser, and
// what it allocates must follow the input's size, not the lengths the
// input claims.
func FuzzFrameReader(f *testing.F) {
	paa := compress.NewPAA()
	enc, err := paa.CompressRatio([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	// A valid two-frame stream, then the golden stream (codec switch, slot
	// reuse, traced frame, backwards ID).
	f.Add(writeFrames(f, Frame{ID: 1, Label: 2, Enc: enc}, Frame{ID: 2, Label: -1, Enc: enc}))
	f.Add(writeFrames(f, goldenFrames...))
	// The watermark-overflow poison frame: ID MaxUint64 parses fine at
	// this layer (the collector rejects it) and must never panic or wrap
	// anything in the reader.
	f.Add(writeFrames(f, Frame{ID: 1<<64 - 1, Label: 0, Enc: enc}))
	f.Add(hostileLength())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got := allocatedBy(func() {
			r := NewReader(bytes.NewReader(data))
			for i := 0; i < 64; i++ { // bounded frames per input
				frame, err := r.Recv()
				if err != nil {
					return // io.EOF or rejected: fine
				}
				if len(frame.Enc.Data) > maxFrameData {
					t.Fatal("payload bound violated")
				}
				if frame.Enc.N < 0 || frame.Enc.N > maxFramePoints {
					t.Fatalf("point count %d escaped validation", frame.Enc.N)
				}
				if n := len(frame.Enc.Codec); n == 0 || n > 255 {
					t.Fatalf("codec name of %d bytes escaped validation", n)
				}
			}
		})
		// A buffer is at most twice the payload bytes received (or one
		// step), and one payload's buffers sum to a geometric series:
		// linear in the input, whatever lengths it claims.
		if bound := uint64(hostileAllocBound + 4*len(data)); got >= bound {
			t.Fatalf("%d input bytes made the reader allocate %d, want < %d", len(data), got, bound)
		}
	})
}

// FuzzFrameRoundTrip is the differential test: the fuzzer's bytes are cut
// into an arbitrary frame list, and whatever the Writer accepts the Reader
// must give back equal.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x03\x04paa-payload\x01\x00\x00\x04more\xff\x09\x07\x02xy"))
	f.Add(bytes.Repeat([]byte{0x10, 0x00, 0x21, 0x03, 'a', 'b', 'c'}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		var frames []Frame
		var id uint64
		// Five control bytes and a payload per frame: ID step, label,
		// trace, codec name, N.
		for len(data) >= 5 && len(frames) < 256 {
			c := data[:5]
			data = data[5:]
			switch c[0] & 3 {
			case 0:
				id++
			case 1:
				id -= uint64(c[0])
			case 2:
				id = math.MaxUint64 - uint64(c[0]>>2)
			default:
				id = id*131 + uint64(c[0])
			}
			size := min(int(c[4]>>2), len(data))
			frames = append(frames, Frame{
				ID: id, Label: int(int8(c[1])), Trace: uint64(c[2] & 0x0f),
				Enc: compress.Encoded{
					Codec: "c" + strings.Repeat("x", int(c[3]>>6)) + string(rune('0'+c[3]&0x3f)),
					N:     int(c[4]&3) * 64,
					Data:  data[:size],
				},
			})
			data = data[size:]
		}
		r := NewReader(bytes.NewReader(writeFrames(t, frames...)))
		for i, want := range frames {
			got, err := r.Recv()
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(frames), err)
			}
			if !sameFrame(got, want) {
				t.Fatalf("frame %d = %+v, want %+v", i, got, want)
			}
		}
		if _, err := r.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF at stream end, got %v", err)
		}
	})
}

// FuzzAckReader: arbitrary bytes must never panic the ACK parser; torn
// input is an error, never a silently wrong watermark.
func FuzzAckReader(f *testing.F) {
	var buf bytes.Buffer
	_ = writeAck(&buf, 7)
	_ = writeAck(&buf, 1<<40)
	f.Add(buf.Bytes())
	f.Add([]byte("AEA1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded ACKs per input
			if _, err := readAck(r); err != nil {
				return // io.EOF or rejected: fine
			}
		}
	})
}

// FuzzReadHello: arbitrary bytes must never panic the hello parser, it
// fails only with ErrBadFrame, and a hello it accepts is byte for byte
// what writeHello or writeHelloV2 writes for the parsed fields.
func FuzzReadHello(f *testing.F) {
	var v1, v2 bytes.Buffer
	_ = writeHello(&v1, 99)
	_ = writeHelloV2(&v2, 1<<40, DefaultAckEvery)
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add([]byte("AEH1\x03\x63"))     // version 3
	f.Add([]byte("AEH1\x81\x00\x07")) // overlong version 1
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		h, err := readHello(br)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("error %v is not ErrBadFrame", err)
			}
			return
		}
		var out bytes.Buffer
		if h.version == helloVersion {
			_ = writeHello(&out, h.deviceID)
		} else {
			_ = writeHelloV2(&out, h.deviceID, h.ackEvery)
		}
		if consumed := data[:len(data)-src.Len()-br.Buffered()]; !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("hello %+v re-serializes to %x, consumed %x", h, out.Bytes(), consumed)
		}
	})
}
