package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/datasets"
	"repro/internal/ml"
	"repro/internal/obs/quality"
	"repro/internal/query"
	"repro/internal/sim"
)

func cbfModel(t *testing.T) ml.Classifier {
	t.Helper()
	X, y := datasets.CBF(150, datasets.CBFConfig{Seed: 5})
	m, err := ml.FitKNN(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func runOnline(t *testing.T, e *OnlineEngine, segments int, seed int64) []Result {
	t.Helper()
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: seed})
	var out []Result
	for i := 0; i < segments; i++ {
		series, label := stream.Next()
		res, enc, err := e.Process(series, label)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		if enc.N != len(series) {
			t.Fatalf("segment %d: enc.N = %d", i, enc.N)
		}
		out = append(out, res)
	}
	return out
}

// TestDefaultCatalogShared: engines built without a Registry, online or
// offline, share one catalog per precision, the paper's 17 codecs, where
// each used to build its own; compress.DefaultRegistry still hands every
// caller a registry of its own, which it may register into. The engines at
// precision 7, which no other test uses, are built and run on goroutines
// of their own, so the first build of that catalog races under -race.
func TestDefaultCatalogShared(t *testing.T) {
	ratio := SingleTarget(TargetRatio)
	on, err := NewOnlineEngine(Config{TargetRatioOverride: 0.5, Objective: ratio, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOfflineEngine(Config{StorageBytes: 1 << 16, Objective: ratio, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if on.reg != off.reg {
		t.Error("two engines built without a Registry at one precision hold different catalogs")
	}
	segs := cbfSegments(t, 20, 3)
	regs := make([]*compress.Registry, 4)
	var wg sync.WaitGroup
	for i := range regs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng, err := NewOfflineEngine(Config{StorageBytes: 1 << 12, Precision: 7, Objective: ratio, Seed: int64(i)})
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range segs {
				if err := eng.Ingest(s.Values, s.Label); err != nil {
					t.Error(err)
					return
				}
			}
			regs[i] = eng.reg
		}()
	}
	wg.Wait()
	for i, r := range regs {
		if r != defaultCatalog(7) || r == off.reg {
			t.Errorf("engine %d at precision 7 does not hold the shared precision-7 catalog", i)
		}
	}
	fresh := compress.DefaultRegistry(4)
	if got, want := on.reg.Names(), fresh.Names(); !slices.Equal(got, want) {
		t.Errorf("the shared catalog holds %v, DefaultRegistry %v", got, want)
	}
	if fresh == on.reg || fresh == compress.DefaultRegistry(4) {
		t.Error("DefaultRegistry returned a registry it had returned before")
	}
}

func TestOnlineNeedsBandwidthOrOverride(t *testing.T) {
	if _, err := NewOnlineEngine(Config{Objective: SingleTarget(TargetRatio)}); err == nil {
		t.Fatal("expected error without bandwidth or override")
	}
}

func TestOnlineRejectsEmptySegment(t *testing.T) {
	e, err := NewOnlineEngine(Config{TargetRatioOverride: 0.5, Objective: SingleTarget(TargetRatio), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Process(nil, 0); err != compress.ErrEmptyInput {
		t.Fatalf("want ErrEmptyInput, got %v", err)
	}
}

func TestOnlineTargetRatioFromConstraints(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		IngestRate: 4e6, Bandwidth: sim.Net4G,
		Objective: SingleTarget(TargetRatio), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TargetRatio(); got < 0.39 || got > 0.40 {
		t.Fatalf("target ratio = %v, want ≈0.39", got)
	}
}

func TestOnlineUsesLosslessWhenFeasible(t *testing.T) {
	// Ratio 0.9 is achievable losslessly on CBF data: no accuracy loss,
	// no lossy segments.
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.9,
		Objective:           MLTarget(cbfModel(t)),
		Seed:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := runOnline(t, e, 60, 20)
	st := e.Stats()
	if st.LossySegments > st.Segments/4 {
		t.Fatalf("too many lossy segments at loose ratio: %d/%d", st.LossySegments, st.Segments)
	}
	for _, r := range results {
		if !r.Lossy && r.AccuracyLoss != 0 {
			t.Fatal("lossless segment reported accuracy loss")
		}
	}
}

func TestOnlineFallsBackToLossyAtTightRatio(t *testing.T) {
	// Ratio 0.1 is far below any lossless codec's reach on CBF.
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.1,
		Objective:           MLTarget(cbfModel(t)),
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 80, 21)
	st := e.Stats()
	if st.LossySegments < st.Segments*3/4 {
		t.Fatalf("expected mostly lossy segments at ratio 0.1, got %d/%d", st.LossySegments, st.Segments)
	}
	if r := st.OverallRatio(); r > 0.12 {
		t.Fatalf("overall ratio %v exceeds target band", r)
	}
}

func TestOnlineRespectsRatioAcrossStream(t *testing.T) {
	for _, target := range []float64{0.5, 0.25, 0.1} {
		e, err := NewOnlineEngine(Config{
			TargetRatioOverride: target,
			Objective:           AggTarget(query.Sum),
			Seed:                4,
		})
		if err != nil {
			t.Fatal(err)
		}
		results := runOnline(t, e, 40, 22)
		for _, r := range results {
			if r.Lossy && r.Ratio > target*1.2+0.02 {
				t.Fatalf("target %v: lossy segment at ratio %v", target, r.Ratio)
			}
		}
	}
}

func TestOnlineMLSelectionPrefersBUFFLossy(t *testing.T) {
	// Paper Fig 7a: tree models are sensitive to value perturbations, so
	// at moderate target ratios (> 0.125) BUFF-lossy — which minimally
	// alters values — should become the bandit's dominant lossy choice.
	X, y := datasets.CBF(240, datasets.CBFConfig{Seed: 5})
	tree, err := ml.FitTree(X, y, ml.TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.22,
		Objective:           MLTarget(tree),
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 250, 23)
	use := e.Stats().CodecUse
	lossyTotal := 0
	bestOther := 0
	for _, name := range []string{"bufflossy", "paa", "pla", "fft", "lttb", "rrdsample"} {
		lossyTotal += use[name]
		if name != "bufflossy" && use[name] > bestOther {
			bestOther = use[name]
		}
	}
	if lossyTotal == 0 {
		t.Fatal("no lossy selections recorded")
	}
	if use["bufflossy"] <= bestOther {
		t.Fatalf("bufflossy (%d) should dominate other lossy codecs (best other %d): %v",
			use["bufflossy"], bestOther, use)
	}
}

func TestOnlineSumQuerySelectionAvoidsSampling(t *testing.T) {
	// Paper Fig 8: PAA/FFT preserve sums; RRD-sample does not. The
	// bandit must learn to avoid the sampler.
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.1,
		Objective:           AggTarget(query.Sum),
		Seed:                6,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 200, 24)
	use := e.Stats().CodecUse
	good := use["paa"] + use["fft"]
	if good < use["rrdsample"]*2 {
		t.Fatalf("sum objective should prefer PAA/FFT over sampling: %v", use)
	}
	if loss := e.Stats().MeanAccuracyLoss(); loss > 0.1 {
		t.Fatalf("mean sum-accuracy loss %v too high", loss)
	}
}

func TestOnlineStatsAccounting(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 30, 25)
	st := e.Stats()
	if st.Segments != 30 {
		t.Fatalf("segments = %d", st.Segments)
	}
	if st.LosslessSegments+st.LossySegments != st.Segments {
		t.Fatal("segment partition does not add up")
	}
	if st.TotalRawBytes != int64(30*128*8) {
		t.Fatalf("raw bytes = %d", st.TotalRawBytes)
	}
	total := 0
	for _, n := range st.CodecUse {
		total += n
	}
	if total != st.Segments {
		t.Fatalf("codec use total = %d, want %d", total, st.Segments)
	}
}

// TestOnlineStatsRawBytesFollowSegment: a segment's raw bytes are 8 per
// point it holds, whatever its length. They were booked at a fixed 128
// points, so ten 64-point segments read 10 240 raw bytes where 5 120 came
// in, and their compressed bytes twice what the payloads hold.
func TestOnlineStatsRawBytesFollowSegment(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.5,
		Objective:           SingleTarget(TargetRatio),
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out int64
	for _, s := range cbfSegments(t, 10, 25) {
		_, enc, err := e.Process(s.Values[:64], s.Label)
		if err != nil {
			t.Fatal(err)
		}
		out += int64(enc.Size())
	}
	st := e.Stats()
	if st.TotalRawBytes != 10*64*8 {
		t.Fatalf("ten 64-point segments booked %d raw bytes, want %d", st.TotalRawBytes, 10*64*8)
	}
	if st.TotalCompressedBytes > out || st.TotalCompressedBytes < out-10 { // truncated once a segment
		t.Fatalf("booked %d compressed bytes, payloads hold %d", st.TotalCompressedBytes, out)
	}
}

func TestOnlineNoFeasibleCodec(t *testing.T) {
	// A registry with only BUFF-lossy cannot reach ratio 0.01 on CBF.
	reg := compress.NewRegistry()
	reg.Register(compress.NewBUFF(4))
	reg.Register(compress.NewBUFFLossy(4))
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.01,
		Objective:           SingleTarget(TargetRatio),
		Registry:            reg,
		Seed:                8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := datasets.NewCBFStream(datasets.CBFConfig{Seed: 26})
	series, label := stream.Next()
	sawErr := false
	for i := 0; i < 10; i++ {
		if _, _, err := e.Process(series, label); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("expected ErrNoFeasibleCodec eventually")
	}
}

func TestOnlineEstimatesExposed(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.1,
		Objective:           AggTarget(query.Max),
		Seed:                9,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 40, 27)
	if got := e.LossyEstimates(); len(got) != 6 {
		t.Fatalf("lossy estimates = %v", got)
	}
}

func TestOnlineBandwidthViolationTracking(t *testing.T) {
	// Force lossless at a rate the link cannot carry: ratio override 1.0
	// means lossless always qualifies, but 4 M pts/s of barely-compressed
	// doubles exceeds 2G, so violations must be flagged.
	e, err := NewOnlineEngine(Config{
		IngestRate:          4e6,
		Bandwidth:           sim.Net2G,
		TargetRatioOverride: 1.0,
		Objective:           SingleTarget(TargetRatio),
		Seed:                10,
	})
	if err != nil {
		t.Fatal(err)
	}
	runOnline(t, e, 20, 28)
	if e.Stats().BandwidthViolations == 0 {
		t.Fatal("expected bandwidth violations to be recorded")
	}
}

// TestOnlinePayloadsDecode decodes every payload Process returns through
// the registry, over a CBF-then-plateau stream that yields lossy and
// lossless winners, oracle-sampled and not, and fills more than one
// payload slab. A lossless payload must give back the input bit for bit,
// a lossy one must decode at the ratio its Result reports.
func TestOnlinePayloadsDecode(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           AggTarget(query.Max),
		Quality:             &quality.Config{SampleEvery: 3},
		Seed:                7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var carved int
	var seen [2][2]int // [lossy][sampled] winners
	for i, values := range shiftPool(400, 13) {
		res, enc, err := e.Process(values, 0)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		carved += len(enc.Data)
		got, err := e.reg.Decompress(enc)
		if err != nil {
			t.Fatalf("segment %d (%s, lossy=%v): decode: %v", i, res.Codec, res.Lossy, err)
		}
		if len(got) != len(values) {
			t.Fatalf("segment %d (%s): decoded %d points, want %d", i, res.Codec, len(got), len(values))
		}
		if enc.Ratio() != res.Ratio {
			t.Fatalf("segment %d (%s): payload ratio %v, Result.Ratio %v", i, res.Codec, enc.Ratio(), res.Ratio)
		}
		if !res.Lossy {
			for j := range values {
				if math.Float64bits(got[j]) != math.Float64bits(values[j]) {
					t.Fatalf("segment %d (%s): point %d decoded to %v, want %v", i, res.Codec, j, got[j], values[j])
				}
			}
		}
		lossy, sampled := 0, 0
		if res.Lossy {
			lossy = 1
		}
		if e.Quality().Sampled(res.SegmentID) {
			sampled = 1
		}
		seen[lossy][sampled]++
	}
	if carved <= payloadSlabBytes {
		t.Fatalf("%d payload bytes never crossed a %d-byte slab", carved, payloadSlabBytes)
	}
	for lossy := range seen {
		for sampled, n := range seen[lossy] {
			if n == 0 {
				t.Errorf("no winner with lossy=%v, sampled=%v", lossy == 1, sampled == 1)
			}
		}
	}
}

// TestRetargetHalvedLink: the spool-pressure hook's move — Retarget to
// half the link — halves the target, and the stream is held to the
// halved bound.
func TestRetargetHalvedLink(t *testing.T) {
	const bw = sim.Bandwidth(3.2e6) // R = B/(64×I) = 0.4 at 1 M points/s
	e, err := NewOnlineEngine(Config{
		IngestRate: 1e6,
		Bandwidth:  bw,
		Objective:  AggTarget(query.Sum),
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TargetRatio(); got != 0.4 {
		t.Fatalf("initial target = %v, want 0.4", got)
	}
	e.Retarget(bw / 2)
	if got := e.TargetRatio(); got != 0.2 {
		t.Fatalf("target on half the link = %v, want 0.2", got)
	}
	for _, r := range runOnline(t, e, 30, 22) {
		if r.Ratio > 0.2+ratioSlack {
			t.Fatalf("segment %d left at ratio %v over the halved target 0.2", r.SegmentID, r.Ratio)
		}
	}
	if v := e.Stats().BandwidthViolations; v != 0 {
		t.Fatalf("bandwidth violations on the halved link = %d, want 0", v)
	}
}

// TestRetargetCapsAtOne: a link faster than the signal can never push
// the target past lossless (ratio 1).
func TestRetargetCapsAtOne(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		IngestRate: 4e6,
		Bandwidth:  sim.Net3G,
		Objective:  AggTarget(query.Sum),
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Retarget(sim.Net5G)
	if got := e.TargetRatio(); got != 1 {
		t.Fatalf("target on 5G = %v, want the cap 1", got)
	}
}

// countingCodec counts the lossless trials the engine runs through it.
type countingCodec struct {
	compress.Codec
	trials *int
}

func (c countingCodec) CompressInto(dst []byte, values []float64) (compress.Encoded, error) {
	*c.trials++
	return c.Codec.CompressInto(dst, values)
}

// countingRegistry is a candidate set whose lossless arms share one trial
// counter; the lossy arms are registered as they are.
func countingRegistry() (*compress.Registry, int, *int) {
	trials := new(int)
	lossless := []compress.Codec{
		compress.NewSnappy(), compress.NewDict(), compress.NewGorilla(),
		compress.NewChimp(), compress.NewSprintz(4), compress.NewBUFF(4),
	}
	reg := compress.NewRegistry()
	for _, c := range lossless {
		reg.Register(countingCodec{c, trials})
	}
	for _, c := range []compress.Codec{
		compress.NewBUFFLossy(4), compress.NewPAA(), compress.NewPLA(),
		compress.NewFFT(), compress.NewLTTB(), compress.NewRRDSample(1),
	} {
		reg.Register(c)
	}
	return reg, len(lossless), trials
}

// shiftPool is one CBF regime followed by one plateau regime, half each.
func shiftPool(n int, seed int64) [][]float64 {
	stream := datasets.NewShiftStream(n, 128, seed)
	pool := make([][]float64, n)
	for i := range pool {
		pool[i], _ = stream.Next()
	}
	return pool
}

// TestOnlineLosslessViabilityStateMachine walks the viability states with
// a trial counter: viable retries every arm, two all-arm misses flip to
// non-viable, a non-viable stream runs no lossless trial except one — the
// policy's pick — every probe interval (shortened to 10 here), a probe hit makes
// lossless viable again, and leaving it again takes two all-arm misses.
func TestOnlineLosslessViabilityStateMachine(t *testing.T) {
	const interval = 10
	reg, arms, trials := countingRegistry()
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.2,
		Objective:           AggTarget(query.Max),
		Registry:            reg,
		Seed:                3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.probeInterval = interval
	pool := shiftPool(200, 11)
	cbf, plateaus := pool[:100], pool[100:]
	step := func(values []float64) (lossy bool, ran int) {
		t.Helper()
		before := *trials
		res, _, err := e.Process(values, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Lossy, *trials - before
	}
	leaveViable := func(segs [][]float64) {
		t.Helper()
		for i := 0; i < 2; i++ {
			if lossy, ran := step(segs[i]); !lossy || ran != arms {
				t.Fatalf("viable miss %d: lossy=%v after %d lossless trials, want every one of %d arms tried", i, lossy, ran, arms)
			}
		}
	}

	// Viable -> non-viable on CBF, then interval-1 quiet segments per probe.
	leaveViable(cbf)
	for i := 2; i < 2+3*interval; i++ {
		want := 0
		if (i-1)%interval == 0 {
			want = 1
		}
		if lossy, ran := step(cbf[i]); !lossy || ran != want {
			t.Fatalf("non-viable segment %d: lossy=%v after %d lossless trials, want %d", i, lossy, ran, want)
		}
	}
	// The data turns compressible: the next probe's single trial hits.
	for i := 0; ; i++ {
		lossy, ran := step(plateaus[i])
		if !lossy {
			if ran != 1 {
				t.Fatalf("probe hit ran %d lossless trials, want 1", ran)
			}
			break
		}
		if ran > 1 || i >= interval {
			t.Fatalf("plateau segment %d: %d lossless trials and still lossy, want a one-trial hit within %d segments", i, ran, interval)
		}
	}
	if lossy, ran := step(plateaus[interval+1]); lossy || ran < 1 {
		t.Fatalf("after the probe hit: lossy=%v with %d lossless trials, want a lossless segment", lossy, ran)
	}
	// And the flip back is the viable state's: two all-arm misses, then quiet.
	leaveViable(cbf[50:])
	if lossy, ran := step(cbf[52]); !lossy || ran != 0 {
		t.Fatalf("non-viable again: lossy=%v after %d lossless trials, want none", lossy, ran)
	}
}

// TestOnlineReprobeTakesUpRegimeFlip runs the edge_shift configuration
// over four CBF/plateau cycles: each flip to plateaus must be back on
// lossless within losslessProbeInterval segments of the boundary, and the
// lossless share must stay where the all-arm re-probe had it.
func TestOnlineReprobeTakesUpRegimeFlip(t *testing.T) {
	e, err := NewOnlineEngine(Config{
		TargetRatioOverride: 0.20,
		Objective:           AggTarget(query.Max),
		BanditPolicy:        "contextual",
		Seed:                1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const half, cycles = 256, 4
	pool := shiftPool(2*half, 11)
	for c := 0; c < cycles; c++ {
		takenUp := -1
		for i, values := range pool {
			res, _, err := e.Process(values, 0)
			if err != nil {
				t.Fatal(err)
			}
			if i >= half && !res.Lossy && takenUp < 0 {
				takenUp = i - half
			}
		}
		if takenUp < 0 || takenUp > losslessProbeInterval {
			t.Errorf("cycle %d: plateaus taken up losslessly %d segments after the flip, want within %d", c, takenUp, losslessProbeInterval)
		}
	}
	// 844 of the 1024 plateau segments with the all-arm re-probe (commit
	// 8b1a8a7): each flip waits out the rest of a probe interval.
	const parent = 844
	got := e.Stats().LosslessSegments
	if d := got - parent; d < -parent/100 || d > parent/100 {
		t.Errorf("LosslessSegments = %d over %d cycles, want within 1%% of %d", got, cycles, parent)
	}
}
