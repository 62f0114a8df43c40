// Package compress implements every compression method AdaEdge selects
// among (paper §III-A): the lossless codecs Gzip, Zlib (with levels),
// Snappy, Dictionary, Gorilla, Chimp, Sprintz and BUFF, and the lossy
// codecs BUFF-lossy, PAA, PLA, FFT, LTTB and RRD-sample. All lossy codecs
// are tunable to a target compression ratio and support recoding — applying
// more aggressive compression to already-compressed data without a full
// decompression round trip (paper §IV-E, "virtual decompression").
//
// Every codec is reached through the one Codec interface, whose two
// methods append into caller-owned buffers (CompressInto, DecompressInto);
// Compress and Decompress are the allocating forms for callers off the
// segment-rate path, Compress at one right-sized payload on every codec. LossyCodec adds the ratio-driven encode in the
// same pair of forms (CompressRatioInto, and CompressRatio into a fresh
// buffer), and Recoder the recode on top, again in both forms (RecodeInto,
// Recode).
package compress

import (
	"errors"
	"fmt"
	"sync"
)

// Encoded is a compressed representation of one segment. It is
// self-describing: Data begins with any codec-specific header needed for
// decompression.
type Encoded struct {
	// Codec is the registry name of the codec that produced Data.
	Codec string
	// Data is the compressed payload, including codec-specific headers.
	Data []byte
	// N is the number of original data points.
	N int
}

// Size returns the compressed size in bytes.
func (e Encoded) Size() int { return len(e.Data) }

// Ratio returns compressed size / original size (original = 8 bytes/point).
func (e Encoded) Ratio() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(len(e.Data)) / float64(8*e.N)
}

// Codec is one compression method over float64 segments. Both methods
// append into a caller-owned buffer, so a caller that keeps its buffers
// circulating (the online trial loop, the collector's decode path) runs
// allocation-free in steady state. A codec handed a nil dst grows it as the
// encoding needs, so the payload may carry spare capacity: callers without
// a buffer use the package's Compress (or CompressInto), which sizes the
// payload to its length on every codec.
//
// Buffer ownership: CompressInto appends the encoding to dst[:0] and the
// returned Encoded.Data aliases dst's backing array (or a growth of it) —
// the caller must not reuse dst until it is done with the Encoded.
// DecompressInto likewise appends decoded points to dst[:0] and returns a
// slice aliasing it. Whatever dst held before is overwritten, never read.
// Neither method retains its arguments past the call; see DESIGN.md §10
// for the full ownership rules.
type Codec interface {
	// Name returns the registry name, e.g. "gorilla" or "zlib-9".
	Name() string
	// CompressInto encodes values into dst's backing array, growing it as
	// needed. Lossy codecs encode at ratio 1.
	CompressInto(dst []byte, values []float64) (Encoded, error)
	// DecompressInto decodes enc into dst's backing array, growing it as
	// needed: the original values exactly for lossless codecs (up to the
	// sign of zero for the quantising ones, see BUFF), an approximation
	// for lossy codecs.
	DecompressInto(dst []float64, enc Encoded) ([]float64, error)
}

// Compress is CompressInto(c, nil, values): a payload the caller owns
// outright, at the cost of one allocation of its length.
func Compress(c Codec, values []float64) (Encoded, error) { return CompressInto(c, nil, values) }

// Decompress decodes enc into a fresh slice.
func Decompress(c Codec, enc Encoded) ([]float64, error) { return c.DecompressInto(nil, enc) }

// CompressInto is c.CompressInto(dst, values) when dst has capacity. When
// it has none, the codec encodes into pooled scratch and the caller gets
// one copy of the payload at its length: the one allocation is the
// payload, whatever the codec's growth pattern, and a kept payload pins no
// slack beyond the allocator's size class.
func CompressInto(c Codec, dst []byte, values []float64) (Encoded, error) {
	if cap(dst) > 0 {
		return c.CompressInto(dst, values)
	}
	buf := payloadScratch.Get()
	defer payloadScratch.Put(buf)
	enc, err := c.CompressInto(*buf, values)
	if err != nil {
		return Encoded{}, err
	}
	*buf = enc.Data[:0] // past freelist.MaxBytes, payloadScratch drops it
	enc.Data = append([]byte(nil), enc.Data...)
	return enc, nil
}

// LossyCodec is a codec tunable to a desired compression ratio. Given a
// target ratio r, CompressRatioInto produces output of approximately r × 8N
// bytes, trading accuracy for space. It appends into dst[:0] under the same
// ownership rules as CompressInto; CompressRatio is CompressRatioInto(nil,
// …), a payload the caller owns outright.
type LossyCodec interface {
	Codec
	// CompressRatioInto encodes values targeting the given compression
	// ratio in (0, 1] into dst's backing array, growing it as needed.
	CompressRatioInto(dst []byte, values []float64, ratio float64) (Encoded, error)
	// CompressRatio is CompressRatioInto into a fresh buffer.
	CompressRatio(values []float64, ratio float64) (Encoded, error)
	// MinRatio reports the smallest ratio the codec can achieve on a
	// segment of n points (e.g. BUFF-lossy cannot discard the integer
	// part, bounding its minimum ratio).
	MinRatio(values []float64) float64
}

// Recoder is a lossy codec that supports direct recoding: producing a more
// aggressively compressed Encoded from an existing one with the same codec,
// bypassing decompression (paper §IV-E). RecodeInto appends into dst[:0]
// under CompressInto's rules, and dst must not overlap enc.Data; Recode is
// RecodeInto(nil, …), a payload the caller owns outright. When enc already
// meets the ratio both return enc itself, not a copy.
type Recoder interface {
	LossyCodec
	// RecodeInto further compresses enc (produced by the same codec) to
	// the new, smaller target ratio into dst's backing array, growing it
	// as needed.
	RecodeInto(dst []byte, enc Encoded, ratio float64) (Encoded, error)
	// Recode is RecodeInto into a fresh buffer.
	Recode(enc Encoded, ratio float64) (Encoded, error)
}

// Errors shared across codecs.
var (
	ErrCodecMismatch   = errors.New("compress: encoded data belongs to a different codec")
	ErrCorrupt         = errors.New("compress: corrupt encoded data")
	ErrRatioInfeasible = errors.New("compress: target ratio not achievable by this codec")
	ErrEmptyInput      = errors.New("compress: empty input")
)

// Registry holds the codec candidate set C the bandit selects from.
//
// Concurrency contract: lookups are read-mostly and guarded by an RWMutex,
// so any number of goroutines (engines sharing a registry, transport
// receivers) may Lookup/Names/Decompress concurrently, including alongside
// a late Register. Codec instances themselves must be stateless across
// calls — every implementation in this package is — since one instance
// serves all of them.
type Registry struct {
	mu     sync.RWMutex
	codecs map[string]Codec // guarded by mu
	order  []string         // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{codecs: make(map[string]Codec)}
}

// Register adds a codec. Registering the same name twice panics: the
// candidate set is assembled once at startup and a duplicate indicates a
// programming error.
func (r *Registry) Register(c Codec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.codecs[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate codec %q", c.Name()))
	}
	r.codecs[c.Name()] = c
	r.order = append(r.order, c.Name())
}

// Lookup returns the codec registered under name.
func (r *Registry) Lookup(name string) (Codec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.codecs[name]
	return c, ok
}

// Names returns registered codec names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Lossless returns the names of all lossless codecs in registration order.
func (r *Registry) Lossless() []string { return r.namesWhere(false) }

// Lossy returns the names of all lossy codecs.
func (r *Registry) Lossy() []string { return r.namesWhere(true) }

// namesWhere returns, in registration order and one allocation, the names
// of the codecs that are lossy codecs or, with lossy false, are not.
func (r *Registry) namesWhere(lossy bool) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.order))
	for _, n := range r.order {
		if _, ok := r.codecs[n].(LossyCodec); ok == lossy {
			out = append(out, n)
		}
	}
	return out
}

// Decompress is DecompressInto a fresh slice.
func (r *Registry) Decompress(enc Encoded) ([]float64, error) {
	return r.DecompressInto(nil, enc)
}

// DecompressInto dispatches to the codec recorded in enc, decoding into
// dst's backing array. The codec runs outside the registry lock.
func (r *Registry) DecompressInto(dst []float64, enc Encoded) ([]float64, error) {
	c, ok := r.Lookup(enc.Codec)
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", enc.Codec)
	}
	return c.DecompressInto(dst, enc)
}

// DefaultRegistry assembles the full candidate set evaluated in the paper:
// lossless Gzip, Snappy, Zlib (levels 1/6/9), Dictionary, Gorilla, Chimp,
// Sprintz, BUFF, Elf; lossy PAA, PLA, FFT, LTTB, BUFF-lossy, RRD-sample.
// precision is the dataset's decimal precision (paper: 4 for CBF, 5 for
// UCR, 6 for UCI).
func DefaultRegistry(precision int) *Registry {
	r := NewRegistry()
	// Lossless.
	r.Register(NewGzip())
	r.Register(NewSnappy())
	r.Register(NewZlib(1))
	r.Register(NewZlib(6))
	r.Register(NewZlib(9))
	r.Register(NewDict())
	r.Register(NewGorilla())
	r.Register(NewChimp())
	r.Register(NewSprintz(precision))
	r.Register(NewBUFF(precision))
	r.Register(NewElf(precision))
	// Lossy.
	r.Register(NewBUFFLossy(precision))
	r.Register(NewPAA())
	r.Register(NewPLA())
	r.Register(NewFFT())
	r.Register(NewLTTB())
	r.Register(NewRRDSample(1))
	return r
}
