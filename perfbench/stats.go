package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"metascritic"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
	"metascritic/internal/stats"
)

// dist summarizes a timing sample the way every end-to-end timing is
// reported: the median, and the highest percentile of a fixed ladder that
// still has at least ten samples beyond it (the maximum when the sample
// is too small for any of them), with the sample count.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // 100 means "maximum"
}

var tailLadder = []float64{99.9, 99, 90, 75}

func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), P50: quantile(s, 0.5), Tail: s[len(s)-1], TailPct: 100}
	for _, p := range tailLadder {
		if float64(len(s))*(1-p/100) >= 10-1e-9 {
			d.Tail, d.TailPct = quantile(s, p/100), p
			break
		}
	}
	return d
}

func (d dist) String() string {
	tail := fmt.Sprintf("p%g", d.TailPct)
	if d.TailPct == 100 {
		tail = "max"
	}
	return fmt.Sprintf("p50 %.4g, %s %.4g, n=%d", d.P50, tail, d.Tail, d.N)
}

// quantile interpolates linearly within an already sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quality scores a result's completed ratings against the world's ground
// truth over every member pair of the metro: the area under the
// precision-recall curve, and precision and recall at the run's own
// threshold λ.
type quality struct {
	AUPRC, Precision, Recall float64
}

func scoreResult(w *netsim.World, r *metascritic.Result) quality {
	truth := w.Truths[r.Metro]
	n := len(r.Members)
	scores := make([]float64, 0, n*(n-1)/2)
	labels := make([]bool, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			scores = append(scores, r.Ratings.At(i, j))
			labels = append(labels, truth.Has(r.Members[i], r.Members[j]))
		}
	}
	c := stats.Confuse(scores, labels, r.Threshold)
	return quality{AUPRC: stats.AUPRC(scores, labels), Precision: c.Precision(), Recall: c.Recall()}
}

// checkResult rejects results no correct run can produce.
func checkResult(r *metascritic.Result, budget int) error {
	if len(r.Members) < 2 || r.Ratings == nil || r.Estimate == nil {
		return fmt.Errorf("metro %d: empty result", r.Metro)
	}
	if r.Measurements <= 0 || r.Measurements > budget {
		return fmt.Errorf("metro %d: %d measurements outside (0, %d]", r.Metro, r.Measurements, budget)
	}
	if r.Threshold < 0.1 || r.Threshold > 0.95 {
		return fmt.Errorf("metro %d: threshold %v outside [0.1, 0.95]", r.Metro, r.Threshold)
	}
	for _, v := range r.Ratings.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metro %d: non-finite rating", r.Metro)
		}
	}
	return nil
}

// digest fingerprints every field of a Result except the Timings
// telemetry: members, rank and rank history, λ and the ALS
// hyperparameters, measurement counts, the calibration log, the learned
// strategy rates, the estimate E_m and its mask, the ratings' bits and
// the final factors. Two results with equal digests are byte-identical
// for every consumer of the pipeline.
func digest(r *metascritic.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	i64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	f64 := func(v float64) { i64(int64(math.Float64bits(v))) }
	ints := func(xs []int) {
		i64(int64(len(xs)))
		for _, x := range xs {
			i64(int64(x))
		}
	}
	matrix := func(m *mat.Matrix) {
		if m == nil {
			i64(-1)
			return
		}
		i64(int64(m.Rows))
		i64(int64(m.Cols))
		for _, v := range m.Data {
			f64(v)
		}
	}
	i64(int64(r.Metro))
	ints(r.Members)
	i64(int64(r.Rank))
	for _, s := range r.RankHistory {
		i64(int64(s.Rank))
		f64(s.MSE)
		i64(int64(s.NewEntries))
		i64(int64(s.Evaluated))
	}
	f64(r.Threshold)
	f64(r.Lambda)
	f64(r.FeatureWeight)
	i64(int64(r.Measurements))
	i64(int64(r.BootstrapMeasurements))
	for _, c := range r.Calibrations {
		f64(c.P)
		flags := 0
		for k, b := range []bool{c.Informative, c.FoundLink, c.FoundNon, c.Exploration} {
			if b {
				flags |= 1 << k
			}
		}
		ints([]int{flags, c.VP.AS, c.VP.Metro, c.Target.AS, c.Target.Metro, c.LinkI, c.LinkJ, c.Strat.ID()})
	}
	for _, v := range r.StrategyRates {
		f64(v)
	}
	if est := r.Estimate; est != nil {
		ints(est.Members)
		matrix(est.E)
		for i := 0; i < est.Mask.N(); i++ {
			ints(est.Mask.RowEntries(i))
		}
	}
	matrix(r.Ratings)
	if r.Factors != nil {
		matrix(r.Factors.P)
		matrix(r.Factors.Q)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// digestAll folds per-metro digests in ascending metro order.
func digestAll(results map[int]*metascritic.Result) [32]byte {
	metros := make([]int, 0, len(results))
	for m := range results {
		metros = append(metros, m)
	}
	sort.Ints(metros)
	h := sha256.New()
	for _, m := range metros {
		d := digest(results[m])
		h.Write(d[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
