// Package baseline implements the comparison systems from the paper's
// evaluation (§V): a CodecDB-style learned lossless selector (which fails
// when the constraints demand lossy compression), a TVStore-style
// time-varying compressor hard-wired to PLA, and fixed lossless_lossy
// codec pairs for the offline ingestion experiments (Figs 12–14).
//
// Substitution note (DESIGN.md §2): CodecDB's neural-network predictor is
// replaced by a nearest-neighbour model over segment statistics trained by
// exhaustive measurement on a sample — a different learned model with the
// same contract (predict the best lossless codec from data features, no
// lossy support).
package baseline

import (
	"errors"
	"math"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/timeseries"
)

// ErrLosslessInfeasible is CodecDB's failure mode: the best lossless codec
// cannot meet the target ratio and the system has no lossy path ("CodecDB
// … fails upon reaching the recoding budget, lacking support for lossy
// compression", paper §V-B2).
var ErrLosslessInfeasible = errors.New("baseline: lossless compression cannot meet the constraint")

// CodecDB is the learned lossless-only selector.
type CodecDB struct {
	reg      *compress.Registry
	lossless []string
	// training exemplars: feature vector -> best codec index
	feats [][4]float64
	best  []int
}

// NewCodecDB builds the selector over the registry's lossless codecs.
func NewCodecDB(reg *compress.Registry) *CodecDB {
	return &CodecDB{reg: reg, lossless: reg.Lossless()}
}

// segFeatures derives the data-feature vector the predictor keys on.
func segFeatures(values []float64) [4]float64 {
	st, err := timeseries.ComputeStats(values)
	if err != nil {
		return [4]float64{}
	}
	return [4]float64{st.Entropy, st.Std, st.FirstDiff, float64(st.Distinct)}
}

// Train measures every lossless codec on each sample segment and memorizes
// (features → winner) exemplars.
func (c *CodecDB) Train(samples [][]float64) error {
	if len(samples) == 0 {
		return errors.New("baseline: no training samples")
	}
	for _, sample := range samples {
		bestIdx, bestSize := -1, math.MaxInt
		for i, name := range c.lossless {
			codec, _ := c.reg.Lookup(name)
			enc, err := compress.Compress(codec, sample)
			if err != nil {
				continue
			}
			if enc.Size() < bestSize {
				bestIdx, bestSize = i, enc.Size()
			}
		}
		if bestIdx < 0 {
			continue
		}
		c.feats = append(c.feats, segFeatures(sample))
		c.best = append(c.best, bestIdx)
	}
	if len(c.best) == 0 {
		return errors.New("baseline: training produced no exemplars")
	}
	return nil
}

// Select predicts the best lossless codec for the segment by
// nearest-neighbour lookup in feature space.
func (c *CodecDB) Select(values []float64) string {
	if len(c.best) == 0 {
		return c.lossless[0]
	}
	f := segFeatures(values)
	bestIdx, bestD := 0, math.Inf(1)
	for i, ex := range c.feats {
		var d float64
		for j := range ex {
			diff := ex[j] - f[j]
			d += diff * diff
		}
		if d < bestD {
			bestIdx, bestD = i, d
		}
	}
	return c.lossless[c.best[bestIdx]]
}

// Process compresses the segment with the predicted codec and enforces the
// target ratio. CodecDB has no lossy fallback: an unmet target is an error.
func (c *CodecDB) Process(values []float64, targetRatio float64) (compress.Encoded, error) {
	name := c.Select(values)
	codec, _ := c.reg.Lookup(name)
	enc, err := compress.Compress(codec, values)
	if err != nil {
		return compress.Encoded{}, err
	}
	if targetRatio < 1 && enc.Ratio() > targetRatio {
		return compress.Encoded{}, ErrLosslessInfeasible
	}
	return enc, nil
}

// TVStore mimics TVStore's time-varying compression restricted to its PLA
// representation: every segment is compressed with PLA at the target
// ratio. It is the "KVStore PLA" line of the paper's online figures
// (experiments/online.go).
type TVStore struct {
	pla *compress.PLA
}

// NewTVStore builds the baseline.
func NewTVStore() *TVStore { return &TVStore{pla: compress.NewPLA()} }

// Process compresses the segment with PLA at the target ratio.
func (t *TVStore) Process(values []float64, targetRatio float64) (compress.Encoded, error) {
	if targetRatio >= 1 {
		return compress.Compress(t.pla, values)
	}
	if t.pla.MinRatio(values) > targetRatio {
		return compress.Encoded{}, compress.ErrRatioInfeasible
	}
	return t.pla.CompressRatio(values, targetRatio)
}

// FixedPairConfig names a lossless_lossy baseline pair (paper §V-B2, e.g.
// gzip_bufflossy, sprintz_fft).
type FixedPairConfig struct {
	// Lossless is the codec used at first compression.
	Lossless string
	// Lossy is the codec used for every recode.
	Lossy string
}

// Name renders the paper's pair naming convention.
func (f FixedPairConfig) Name() string { return f.Lossless + "_" + f.Lossy }

// NewFixedPairEngine builds an offline engine whose bandits are pinned to
// one lossless and one lossy codec, turning AdaEdge's machinery into the
// paper's fixed-pair baselines while sharing all accounting and recoding
// infrastructure.
func NewFixedPairEngine(pair FixedPairConfig, cfg core.Config) (*core.OfflineEngine, error) {
	cfg.LosslessArms = []string{pair.Lossless}
	cfg.LossyArms = []string{pair.Lossy}
	return core.NewOfflineEngine(cfg)
}
