package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"metascritic"
	"metascritic/internal/engine"
	"metascritic/internal/netsim"
	"metascritic/internal/sysmem"
)

// campaignSpec is one campaign workload: how its worlds are generated and
// seeded with public evidence, which metros a campaign covers, and the
// pipeline configuration.
type campaignSpec struct {
	// worlds is the number of distinct worlds a run cycles through, so
	// that quality and traceroute counts average over several inputs.
	worlds int
	world  func(seed int64) netsim.Config
	// seedPublic fills a fresh pipeline's store with public traces.
	seedPublic func(p *metascritic.Pipeline, seed int64)
	// metros picks the campaign's metros, ascending.
	metros func(w *netsim.World) []int
	cfg    metascritic.Config
	// viaEngine runs the campaign through engine.RunAll with two workers;
	// otherwise each metro is one Pipeline.Run.
	viaEngine bool
	// fixed makes every run use the inputs of seed 1.
	fixed bool
}

func campaignConfig(budget int) metascritic.Config {
	cfg := metascritic.DefaultConfig()
	cfg.MaxMeasurements = budget
	cfg.Rank.MaxRank = 12
	cfg.Rank.Iterations = 6
	return cfg
}

// campaignSmall is the paper's operating point: all six study metros of
// a small world, where ALS and the rank sweep do most of the work.
var campaignSmall = campaignSpec{
	worlds: 16,
	world: func(seed int64) netsim.Config {
		return netsim.Config{Seed: seed, Metros: netsim.DefaultMetros(0.05)}
	},
	seedPublic: func(p *metascritic.Pipeline, seed int64) {
		p.SeedPublicMeasurements(10, rand.New(rand.NewSource(seed)))
	},
	metros: func(w *netsim.World) []int {
		ms := append([]int(nil), w.PrimaryMetros()...)
		sort.Ints(ms)
		return ms
	},
	cfg:       campaignConfig(2000),
	viaEngine: true,
}

// metroInternet is one dense head metro of a 10k-AS world, pruned to at
// most 1024 members: the probe selector does almost all the work. Its
// input is fixed and does not depend on the run's seed: the selector's
// cost depends on the evidence it meets, and one campaign takes anywhere
// from 17 to 40 s across world or pipeline seeds on the same host, a
// spread no single-campaign run could bound.
var metroInternet = campaignSpec{
	worlds: 1,
	fixed:  true,
	world: func(seed int64) netsim.Config {
		return netsim.Config{Seed: seed, Metros: netsim.InternetMetros(10000)}
	},
	// An Internet-scale world hosts thousands of probes; a strided sample
	// of 800 public traces keeps the evidence layer warm at bounded cost.
	seedPublic: func(p *metascritic.Pipeline, seed int64) {
		const seedTraces = 800
		w := p.World
		rng := rand.New(rand.NewSource(seed))
		stride := len(w.Probes) / seedTraces
		if stride < 1 {
			stride = 1
		}
		n := w.G.N()
		for i := 0; i < len(w.Probes); i += stride {
			pr := w.Probes[i]
			if dst := rng.Intn(n); dst != pr.AS {
				p.Store.AddTrace(p.Engine.Run(pr.AS, pr.Metro, dst))
			}
		}
	},
	metros: func(w *netsim.World) []int { return w.PrimaryMetros()[:1] },
	cfg:    campaignConfig(4000),
}

// inputSeed derives the seed of world j of a run: it generates the world,
// samples its public evidence and seeds the pipeline.
func (s *campaignSpec) inputSeed(seed int64, j int) int64 {
	if s.fixed {
		return 1
	}
	return seed*1000 + int64(j)
}

// metroSeed is the per-metro pipeline seed: engine.RunAll's derivation
// for engine campaigns, the world seed itself for single Pipeline.Runs.
func (s *campaignSpec) metroSeed(base int64, metro int) int64 {
	if s.viaEngine {
		return engine.MetroSeed(base, metro)
	}
	return base
}

// setup builds a cold pipeline over a freshly generated world: nothing is
// shared with earlier campaigns, so the route cache starts empty.
func (s *campaignSpec) setup(seed int64) (*metascritic.Pipeline, time.Duration, time.Duration) {
	start := time.Now()
	w := netsim.Generate(s.world(seed))
	gen := time.Since(start)
	p := metascritic.NewPipeline(w)
	s.seedPublic(p, seed)
	return p, time.Since(start), gen
}

// campaign runs one campaign on p the way a user would.
func (s *campaignSpec) campaign(ctx context.Context, p *metascritic.Pipeline, seed int64) (map[int]*metascritic.Result, error) {
	cfg := s.cfg
	cfg.Seed = seed
	metros := s.metros(p.World)
	if s.viaEngine {
		mr, err := engine.New(p).RunAll(ctx, engine.Config{Base: cfg, Metros: metros, Workers: 2})
		if err != nil {
			return nil, err
		}
		return mr.Results, nil
	}
	out := map[int]*metascritic.Result{}
	for _, m := range metros {
		c := cfg
		c.Seed = s.metroSeed(seed, m)
		res, err := p.Snapshot().Run(ctx, m, c)
		if err != nil {
			return nil, err
		}
		out[m] = res
	}
	return out, nil
}

// worldOutcome is what the first campaign on a world established; later
// campaigns on the same world must reproduce its digest.
type worldOutcome struct {
	digest      [32]byte
	traceroutes int
	q           quality
}

func (o *outcome) checkCampaign(w *netsim.World, results map[int]*metascritic.Result, budget int) (traceroutes int, q quality) {
	for _, r := range results {
		o.attempted++
		if err := checkResult(r, budget); err != nil {
			o.fail("%v", err)
			continue
		}
		traceroutes += r.Measurements
		rq := scoreResult(w, r)
		q.AUPRC += rq.AUPRC / float64(len(results))
		q.Precision += rq.Precision / float64(len(results))
		q.Recall += rq.Recall / float64(len(results))
	}
	return traceroutes, q
}

// runCampaignWorkload measures campaigns back to back, each on a cold
// pipeline, for the run's duration.
func runCampaignWorkload(ctx context.Context, s *campaignSpec, seed int64, dur time.Duration, o *outcome) {
	var setups, gens []float64
	walls := map[int][]float64{}
	seen := map[int]*worldOutcome{}
	start := time.Now()
	// Two extra set-ups ahead of the first campaign, so that set-up time
	// is a median of at least three even when one campaign fills the run.
	for k := 0; k < 2; k++ {
		_, st, gen := s.setup(s.inputSeed(seed, 0))
		setups, gens = append(setups, st.Seconds()), append(gens, gen.Seconds())
	}
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		// The previous campaign's state is garbage by now; collecting it
		// keeps peak RSS a property of one campaign, however many fit.
		runtime.GC()
		j := i % s.worlds
		ws := s.inputSeed(seed, j)
		p, st, gen := s.setup(ws)
		setups, gens = append(setups, st.Seconds()), append(gens, gen.Seconds())
		t0 := time.Now()
		results, err := s.campaign(ctx, p, ws)
		wall := time.Since(t0)
		if err != nil {
			o.attempted++
			o.fail("campaign on world %d: %v", ws, err)
			break
		}
		walls[j] = append(walls[j], wall.Seconds())
		d := digestAll(results)
		if prev := seen[j]; prev != nil {
			o.attempted++
			if d != prev.digest {
				o.fail("world %d: campaign digest %x differs from the first campaign's %x", ws, d[:8], prev.digest[:8])
			}
			continue
		}
		tr, q := o.checkCampaign(p.World, results, s.cfg.MaxMeasurements)
		seen[j] = &worldOutcome{digest: d, traceroutes: tr, q: q}
		o.notef("world %d: campaign digest %x", ws, d[:8])
	}
	var tr, au, pr, rc float64
	for _, w := range seen {
		tr += float64(w.traceroutes) / float64(len(seen))
		au += w.q.AUPRC / float64(len(seen))
		pr += w.q.Precision / float64(len(seen))
		rc += w.q.Recall / float64(len(seen))
	}
	for j := 0; j < s.worlds; j++ {
		if ws := walls[j]; len(ws) > 0 {
			o.notef("world %d: %d campaigns, median %.4f s, %v", s.inputSeed(seed, j), len(ws), median(ws), ws)
		}
	}
	camp := campaignLatency(walls)
	rss := float64(sysmem.PeakRSSBytes()) / (1 << 20)
	o.report("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups (netsim.Generate median %.4g s)", len(setups), median(gens)))
	o.report("campaign_s", camp.P50, "s", camp.String()+fmt.Sprintf(", over %d worlds", len(walls)))
	o.report("peak_rss_mb", rss, "MB", "VmHWM of this process")
	o.report("traceroutes", tr, "count", fmt.Sprintf("targeted traceroutes per campaign, mean over %d worlds", len(seen)))
	o.report("auprc", au, "ratio", "mean over metros and worlds")
	o.report("precision_at_thr", pr, "ratio", "at each run's λ")
	o.report("recall_at_thr", rc, "ratio", "at each run's λ")
	o.reportErrorFrac()

	o.metric("setup_s", median(setups), "s")
	o.metric("latency_p50_ms", camp.P50*1e3, "ms")
	o.metric("latency_tail_ms", camp.Tail*1e3, "ms")
	o.metric("peak_rss_mb", rss, "MB")
	o.metric("traceroutes", tr, "count")
	o.metric("auprc", au, "ratio")
	o.metric("precision_at_thr", pr, "ratio")
	o.metric("recall_at_thr", rc, "ratio")
}

// campaignLatency summarizes campaign wall times over a run's worlds.
// Worlds differ in size, so the pooled sample is a mixture; the median is
// the mean of the per-world medians, and the tail is that median scaled
// by the tail percentile of every campaign's time relative to its own
// world's median.
func campaignLatency(walls map[int][]float64) dist {
	var p50 float64
	var rel []float64
	for _, ws := range walls {
		m := median(ws)
		p50 += m / float64(len(walls))
		for _, w := range ws {
			rel = append(rel, w/m)
		}
	}
	d := summarize(rel)
	d.P50, d.Tail = p50, p50*d.Tail
	return d
}

// goCounters reads the process-wide allocation and GC cycle counters.
func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runCampaignTraced produces the per-layer ledger of a campaign workload.
// Each iteration runs one campaign three ways on cold pipelines: the
// untraced serial reference (Pipeline.Run with MeasureWorkers=1, per
// metro), the user-facing campaign through engine.RunAll for the engine
// counters (engine campaigns only), and the traced replica, whose results
// must be byte-identical to the reference.
func runCampaignTraced(ctx context.Context, s *campaignSpec, seed int64, dur time.Duration, o *outcome, spanPath string) {
	t := newTracer()
	var (
		iters              int
		untraced           time.Duration
		gens               []float64
		cnt                replicaCounts
		ranks, props, hits int64
		busy, util         float64
		allocB, gcs        uint64
	)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		ws := s.inputSeed(seed, i%s.worlds)
		cfg := s.cfg
		cfg.MeasureWorkers = 1

		p, _, gen := s.setup(ws)
		gens = append(gens, gen.Seconds())
		ref := map[int][32]byte{}
		c0 := p.Engine.Cache.Stats()
		a0, g0 := goCounters()
		for _, m := range s.metros(p.World) {
			c := cfg
			c.Seed = s.metroSeed(ws, m)
			t0 := time.Now()
			res, err := p.Snapshot().Run(ctx, m, c)
			untraced += time.Since(t0)
			if err != nil {
				o.attempted++
				o.fail("reference run, metro %d: %v", m, err)
				return
			}
			ref[m] = digest(res)
			ranks += int64(len(res.RankHistory))
		}
		a1, g1 := goCounters()
		allocB, gcs = allocB+a1-a0, gcs+g1-g0
		c1 := p.Engine.Cache.Stats()
		props += c1.Computed - c0.Computed
		hits += c1.Hits - c0.Hits

		if s.viaEngine {
			p, _, _ = s.setup(ws)
			c := s.cfg
			c.Seed = ws
			mr, err := engine.New(p).RunAll(ctx, engine.Config{Base: c, Metros: s.metros(p.World), Workers: 2})
			if err != nil {
				o.attempted++
				o.fail("engine campaign: %v", err)
				return
			}
			busy += mr.Stats.Busy.Seconds()
			util += mr.Stats.Utilization()
		}

		p, _, _ = s.setup(ws)
		runtime.GC()
		t.run = i
		for _, m := range s.metros(p.World) {
			c := cfg
			c.Seed = s.metroSeed(ws, m)
			res := replicaRun(t, p.Snapshot(), m, c, &cnt)
			o.attempted++
			if d, want := digest(res), ref[m]; d != want {
				o.fail("world %d metro %d: traced replica result %x differs from Pipeline.Run %x", ws, m, d[:8], want[:8])
			}
		}
		iters++
	}
	rows, wall, residual := t.ledger(map[string]bool{"metro": true})
	per := func(v float64) float64 { return v / float64(iters) }
	sec := func(prefixes ...string) float64 { return per(selfOf(rows, prefixes...).Seconds()) }

	o.metric("probe.select_s", sec("probe."), "s")
	o.metric("probe.select_calls", per(float64(callsOf(rows, "probe.bootstrap_plan", "probe.select_batch"))), "count")
	o.metric("probe.alloc_mb", per(float64(allocOf(rows, "probe."))/(1<<20)), "MB")
	o.metric("probe.informative_frac", ratio(float64(cnt.Informative), float64(cnt.Reports)), "ratio")
	o.metric("rank.sweep_self_s", sec("rank.estimate"), "s")
	o.metric("rank.ranks_tried", per(float64(ranks)), "count")
	o.metric("als.complete_s", sec("als."), "s")
	o.metric("threshold.s", sec("threshold."), "s")
	o.metric("traceroute.trace_s", sec("traceroute."), "s")
	o.metric("traceroute.traces", per(float64(callsOf(rows, "traceroute.trace"))), "count")
	o.metric("bgp.prop_s", sec("bgp."), "s")
	o.metric("bgp.propagations", per(float64(props)), "count")
	o.metric("bgp.hit_ratio", ratio(float64(hits), float64(hits+props)), "ratio")
	o.metric("obs.addtrace_s", sec("obs.addtrace"), "s")
	o.metric("obs.estimate_s", sec("obs.estimate", "obs.refresh"), "s")
	o.metric("engine.utilization", per(util), "ratio")
	o.metric("engine.busy_s", per(busy), "s")
	o.metric("netsim.generate_s", median(gens), "s")
	o.metric("go.alloc_mb", per(float64(allocB)/(1<<20)), "MB")
	o.metric("go.gc_cycles", per(float64(gcs)), "count")
	o.ledgerMetrics(rows, wall, residual, untraced, iters)

	o.ledger = func() { printLedger(o.out, rows, wall, residual, untraced) }
	o.writeSpans(t, spanPath)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
