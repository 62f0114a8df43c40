package main

import (
	"bytes"
	"runtime"

	"repro/internal/bandit/contextual"
	"repro/internal/compress"
	"repro/internal/ml"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/transport"
)

// Kernel replays run after the timed phases of a traced run: each layer's
// public entry point called alone, over the input pool, weighted by the
// codec mix the run actually chose. They say what one call costs when
// nothing else competes for the core, which the in-path spans cannot.

// kernelInput selects which kernels a workload replays.
type kernelInput struct {
	reg    *compress.Registry
	sample [][]float64
	spans  *spanLog

	// mix is the share of segments each codec took: what encode and decode
	// cost is weighted by.
	mix map[string]float64
	// encode replays the device-side encode (and, with probeShare > 0, the
	// MinRatio probes over every lossy arm that precede a lossy decision).
	encode     bool
	target     float64
	probeShare float64
	// recodeMix, when set, replays the offline recode step per lossy codec.
	recodeMix map[string]float64

	features bool          // contextual.FeaturesInto
	model    ml.Classifier // ml: Predict
	agg      bool          // query.Apply(query.Max), edge_shift's objective
	wire     bool          // transport frame codec and store.Spool
	pool     bool          // store.Pool
}

// kernelSegments is how many of the pool's segments a kernel is replayed
// over. A variable so the smoke test can replay fewer.
var kernelSegments = poolSegments

// timeOp calls op once per sample segment and returns the mean
// microseconds and heap allocations per call.
func (in *kernelInput) timeOp(name string, op func(i int)) (us, allocs float64) {
	n := len(in.sample)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := now()
	for i := 0; i < n; i++ {
		op(i)
	}
	t1 := now()
	runtime.ReadMemStats(&m1)
	in.spans.add("kernel."+name, 0, 0, t0, t1)
	return float64(t1-t0) / 1e3 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func normalize(counts map[string]int) map[string]float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make(map[string]float64, len(counts))
	for name, c := range counts {
		if c > 0 {
			out[name] = float64(c) / float64(total)
		}
	}
	return out
}

// encodeWith is the call the engine makes for one trial of the codec: a
// lossy codec aims at the ratio, a lossless one ignores it.
func encodeWith(c compress.Codec, dst []byte, seg []float64, ratio float64) (compress.Encoded, error) {
	if lc, lossy := c.(compress.LossyCodec); lossy {
		return lc.CompressRatio(seg, ratio)
	}
	return compress.CompressInto(c, dst, seg)
}

func runKernels(m readings, in kernelInput) {
	in.sample = in.sample[:min(kernelSegments, len(in.sample))]
	n := len(in.sample)
	encBuf := make([]byte, 0, 4096)
	decBuf := make([]float64, 0, 256)
	ratio := in.target
	if ratio <= 0 {
		ratio = wireLossyRatio
	}

	for name, share := range in.mix {
		c, ok := in.reg.Lookup(name)
		if !ok {
			continue
		}
		encoded := make([]compress.Encoded, n)
		for i, seg := range in.sample {
			encoded[i], _ = encodeWith(c, nil, seg, ratio)
		}
		if in.encode {
			us, allocs := in.timeOp("compress.encode."+name, func(i int) {
				_, _ = encodeWith(c, encBuf[:0], in.sample[i], ratio)
			})
			m["compress.encode_us"] += share * us
			m["compress.encode_allocs"] += share * allocs
		}
		us, allocs := in.timeOp("compress.decode."+name, func(i int) {
			if encoded[i].Data != nil {
				decBuf, _ = in.reg.DecompressInto(decBuf[:0], encoded[i])
			}
		})
		m["compress.decode_us"] += share * us
		m["compress.decode_allocs"] += share * allocs
	}

	if in.encode && in.probeShare > 0 {
		var lossy []compress.LossyCodec
		for _, name := range in.reg.Lossy() {
			c, _ := in.reg.Lookup(name)
			lossy = append(lossy, c.(compress.LossyCodec))
		}
		var sink float64
		us, _ := in.timeOp("compress.minratio", func(i int) {
			for _, lc := range lossy {
				sink += lc.MinRatio(in.sample[i])
			}
		})
		_ = sink
		m["compress.minratio_us"] = in.probeShare * us
	}

	for name, share := range in.recodeMix {
		c, _ := in.reg.Lookup(name)
		rc, ok := c.(compress.Recoder)
		if !ok {
			continue
		}
		loose := make([]compress.Encoded, n)
		for i := range loose {
			loose[i], _ = rc.CompressRatio(in.sample[i], 2*ratio)
		}
		us, _ := in.timeOp("compress.recode."+name, func(i int) {
			if loose[i].Data != nil {
				_, _ = rc.Recode(loose[i], ratio)
			}
		})
		m["compress.recode_us"] += share * us
	}

	if in.features {
		feat := make([]float64, 0, 8)
		m["contextual.features_us"], _ = in.timeOp("contextual.features", func(i int) {
			feat = contextual.FeaturesInto(feat, in.sample[i])
		})
	}
	if in.model != nil {
		var sink int
		m["ml.predict_us"], _ = in.timeOp("ml.predict", func(i int) { sink += in.model.Predict(in.sample[i]) })
		_ = sink
	}
	if in.agg {
		m["query.agg_us"], _ = in.timeOp("query.agg", func(i int) { _, _ = query.Apply(query.Max, in.sample[i]) })
	}

	if in.wire {
		frames := make([]transport.Frame, n)
		for i, seg := range in.sample {
			c, _ := in.reg.Lookup(wireCodecs[i%len(wireCodecs)])
			enc, _ := encodeWith(c, nil, seg, wireLossyRatio)
			frames[i] = transport.Frame{ID: uint64(i), Label: i % 3, Enc: enc}
		}
		var buf bytes.Buffer
		w, r := transport.NewWriter(&buf), transport.NewReader(&buf)
		m["transport.frame_codec_us"], _ = in.timeOp("transport.frame_codec", func(i int) {
			if w.Send(frames[i]) == nil && w.Flush() == nil {
				_, _ = r.Recv()
			}
		})
		spool := store.NewSpool(spoolSegments, 0, 0, nil)
		m["store.spool_op_us"], _ = in.timeOp("store.spool", func(i int) {
			_ = spool.Append(&store.Entry{ID: frames[i].ID, Label: frames[i].Label, Enc: frames[i].Enc})
			spool.AckBelow(frames[i].ID + 1)
		})
	}

	if in.pool {
		pool := store.NewPool(nil)
		entries := make([]*store.Entry, n)
		for i := range entries {
			entries[i] = &store.Entry{ID: uint64(i), Lossless: true}
		}
		m["store.pool_op_us"], _ = in.timeOp("store.pool", func(i int) {
			pool.Put(entries[i])
			if v, ok := pool.Victim(); ok {
				pool.Touch(v.ID)
			}
		})
	}
}
