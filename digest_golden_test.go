// The golden digest was computed on amd64 at the default GOAMD64=v1. The
// compiler fuses x*y+z into one FMA instruction on arm64, ppc64le, s390x,
// riscv64 and on amd64 at GOAMD64=v3 and above, which rounds ALS, the
// rank sweep and the thresholds differently, so the constant holds only
// for the builds this constraint admits.

//go:build amd64 && !amd64.v3

package metascritic_test

// TestRunDigestGolden pins end-to-end Pipeline.Run results: any change to
// measurement selection, evidence, completion, the rank sweep or the
// threshold search that moves a single output bit changes the digest.
// Performance work on those layers must keep it; a deliberate change of
// results must update runDigestGolden and say why. It runs only on amd64
// builds without FMA fusion (see the build constraint above).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"math/rand"
	"testing"

	"metascritic"
	"metascritic/internal/mat"
	"metascritic/internal/netsim"
)

const runDigestGolden = "22f9b44b825c8de17b5263d84cdd9167e74dd49d23f64bf8da382c4c61c75b5a"

func TestRunDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline runs")
	}
	h := sha256.New()
	for _, seed := range []int64{1, 2} {
		w := netsim.Generate(netsim.Config{Seed: seed, Metros: netsim.DefaultMetros(0.05)})
		p := metascritic.NewPipeline(w)
		p.SeedPublicMeasurements(6, rand.New(rand.NewSource(seed)))
		cfg := metascritic.DefaultConfig()
		cfg.MaxMeasurements = 2000
		cfg.Rank.MaxRank = 12
		cfg.Rank.Iterations = 6
		cfg.Seed = seed
		for _, metro := range w.PrimaryMetros()[:2] {
			res, err := p.Run(context.Background(), metro, cfg)
			if err != nil {
				t.Fatalf("world %d metro %d: %v", seed, metro, err)
			}
			writeResultDigest(h, res)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != runDigestGolden {
		t.Fatalf("Pipeline.Run digest = %s, want %s", got, runDigestGolden)
	}
}

// writeResultDigest feeds every field of r except the Timings telemetry
// into h: members, rank and rank history, λ and the ALS hyperparameters,
// measurement counts, the calibration log, the strategy rates, the
// estimate and its mask, the ratings' bits and the final factors.
func writeResultDigest(h io.Writer, r *metascritic.Result) {
	var buf [8]byte
	i64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	f64 := func(v float64) { i64(int64(math.Float64bits(v))) }
	ints := func(xs ...int) {
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
		ints(m.Rows, m.Cols)
		for _, v := range m.Data {
			f64(v)
		}
	}
	i64(int64(r.Metro))
	ints(r.Members...)
	i64(int64(r.Rank))
	for _, s := range r.RankHistory {
		ints(s.Rank, s.NewEntries, s.Evaluated)
		f64(s.MSE)
	}
	f64(r.Threshold)
	f64(r.Lambda)
	f64(r.FeatureWeight)
	ints(r.Measurements, r.BootstrapMeasurements)
	for _, c := range r.Calibrations {
		f64(c.P)
		flags := 0
		for k, b := range []bool{c.Informative, c.FoundLink, c.FoundNon, c.Exploration} {
			if b {
				flags |= 1 << k
			}
		}
		ints(flags, c.VP.AS, c.VP.Metro, c.Target.AS, c.Target.Metro, c.LinkI, c.LinkJ, c.Strat.ID())
	}
	for _, v := range r.StrategyRates {
		f64(v)
	}
	if est := r.Estimate; est != nil {
		ints(est.Members...)
		matrix(est.E)
		for i := 0; i < est.Mask.N(); i++ {
			ints(est.Mask.RowEntries(i)...)
		}
	}
	matrix(r.Ratings)
	if r.Factors != nil {
		matrix(r.Factors.P)
		matrix(r.Factors.Q)
	}
}
