package rank

import (
	"math/rand"
	"testing"

	"metascritic/internal/benchscale"
	"metascritic/internal/mat"
)

// benchConfig sizes the estimation loop from METASCRITIC_BENCH_SCALE: at the
// CI trajectory scale (0.05) it runs a 70-AS oracle world with MaxRank 12,
// which keeps the full §3.2 loop (top-up, holdout draws, ALS completions,
// stopping rule) in play while finishing in seconds.
func benchConfig() (n int, cfg Config) {
	cfg = DefaultConfig()
	cfg.MaxRank = benchscale.N(240, 12)
	cfg.FeatureWeight = 0
	return benchscale.N(1400, 70), cfg
}

func BenchmarkRankEstimate(b *testing.B) {
	n, cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// topUp mutates the world, so every iteration needs a fresh one.
		w := newOracleWorld(n, 5, 0.02, 0.18, 1)
		b.StartTimer()
		res := Estimate(w.E, w.mask, nil, w.topUp, cfg)
		if res.Rank < 1 {
			b.Fatalf("rank %d", res.Rank)
		}
	}
}

// BenchmarkRankEstimateFeatured is BenchmarkRankEstimate with the feature
// block the pipeline's sweep always carries: 20 columns (about what
// BuildFeatures produces) at the default FeatureWeight.
func BenchmarkRankEstimateFeatured(b *testing.B) {
	n, cfg := benchConfig()
	cfg.FeatureWeight = DefaultConfig().FeatureWeight
	features := mat.New(n, 20)
	rng := rand.New(rand.NewSource(3))
	for i := range features.Data {
		features.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := newOracleWorld(n, 5, 0.02, 0.18, 1)
		b.StartTimer()
		res := Estimate(w.E, w.mask, features, w.topUp, cfg)
		if res.Rank < 1 {
			b.Fatalf("rank %d", res.Rank)
		}
	}
}
