package main

// The traced campaign driver. It performs one metro run by calling the
// same layer functions as metascritic.Pipeline.Run, in the same order and
// with the same RNG, on the serial measurement path (MeasureWorkers=1),
// with a span around every call. Its Result must be byte-identical to
// Pipeline.Run's (digest); the traced run fails otherwise, which keeps
// this replica from drifting into measuring a different program. The
// only call it adds is a route propagation ahead of a traceroute whose
// destination is not cached yet, so that BGP propagation shows as its own
// span; propagation is deterministic and cached either way, so the
// traceroute that follows returns the same hops.

import (
	"math/rand"

	"metascritic"
	"metascritic/internal/als"
	"metascritic/internal/asgraph"
	"metascritic/internal/mat"
	"metascritic/internal/obs"
	"metascritic/internal/probe"
	"metascritic/internal/rank"
	"metascritic/internal/stats"
)

// replicaCounts are the counts the ledger cannot read off span names.
type replicaCounts struct {
	Reports, Informative int
}

func replicaRun(t *tracer, p *metascritic.Pipeline, metro int, cfg metascritic.Config, cnt *replicaCounts) *metascritic.Result {
	root := t.begin("metro", true)
	defer t.end(root)
	g := p.World.G
	var members []int
	t.do("probe.top_members", true, func() { members = probe.TopMembers(g, g.Metros[metro].Members, cfg.MaxMetroMembers) })
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sel *probe.Selector
	t.do("probe.new_selector", true, func() { sel = probe.NewSelector(g, metro, members, p.VPs(), p.Hitlist) })
	boot := cfg.BootstrapPerStrategy
	if cfg.Priors != nil {
		t.do("probe.init_priors", true, func() { sel.InitPriors(*cfg.Priors, cfg.PriorWeight) })
		boot = (boot + 4) / 5
	}
	res := &metascritic.Result{Metro: metro, Members: members}

	var est *obs.Estimate
	t.do("obs.estimate", true, func() { est = p.Store.Estimate(metro, members, cfg.NegPolicy) })
	refresh := func() { t.do("obs.refresh", true, func() { p.Store.Refresh(est) }) }
	var features *mat.Matrix
	t.do("pipeline.features", true, func() { features = metascritic.BuildFeatures(g, members) })
	budget := cfg.MaxMeasurements

	// measure is the serial measurement path: one traceroute, ingested,
	// then committed, until the batch or the budget runs out.
	measure := func(batch []probe.Measurement, commit func(probe.Measurement, []obs.Finding)) {
		for _, m := range batch {
			if budget <= 0 {
				return
			}
			budget--
			tid := t.begin("traceroute.trace", false)
			if !p.Engine.Cache.Contains(m.Target.AS) && m.VP.AS != m.Target.AS {
				t.do("bgp.prop", false, func() { p.Engine.Cache.RoutesTo(m.Target.AS) })
			}
			tr := p.Engine.RunTarget(m.VP.AS, m.VP.Metro, m.Target.AS, m.Target.Metro)
			t.end(tid)
			var findings []obs.Finding
			t.do("obs.addtrace", false, func() { findings = p.Store.AddTrace(tr) })
			commit(m, findings)
		}
	}
	report := func(m probe.Measurement, informative bool) {
		t.do("probe.report", false, func() { sel.Report(m, informative) })
		cnt.Reports++
		if informative {
			cnt.Informative++
		}
	}

	if boot > 0 && budget > 0 {
		var plan []probe.Measurement
		t.do("probe.bootstrap_plan", true, func() { plan = sel.BootstrapPlan(boot, 600, rng) })
		measure(plan, func(m probe.Measurement, findings []obs.Finding) {
			res.Measurements++
			res.BootstrapMeasurements++
			informative := false
			want := asgraph.MakePair(m.LinkI, m.LinkJ)
			for _, f := range findings {
				if f.Pair == want {
					informative = true
					break
				}
			}
			report(m, informative)
			res.Calibrations = append(res.Calibrations, metascritic.Calibration{
				P: m.P, Informative: informative, Exploration: true,
				VP: m.VP, Target: m.Target, LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
			})
		})
		refresh()
	}

	target := make([]int, len(members))
	cur := make([]int, len(members))
	var fillBuf []int
	topUp := func(need []int) int {
		id := t.begin("pipeline.topup", true)
		defer t.end(id)
		before := est.Mask.Count()
		for i := range need {
			target[i] = 0
			if need[i] > 0 {
				target[i] = est.Mask.RowCount(i) + need[i] + cfg.Rank.HoldoutPerRow
			}
		}
		stale := 0
		for round := 0; round < 16 && budget > 0; round++ {
			for i := range cur {
				cur[i] = 0
			}
			remaining := 0
			for i := range target {
				if d := target[i] - est.Mask.RowCount(i); d > 0 {
					cur[i] = d
					remaining += d
				}
			}
			if remaining == 0 {
				break
			}
			size := cfg.BatchSize
			if size > budget {
				size = budget
			}
			countBefore := est.Mask.Count()
			fillBuf = est.AppendRowFill(fillBuf)
			var batch []probe.Measurement
			t.do("probe.select_batch", true, func() { batch = sel.SelectBatch(size, cfg.Epsilon, fillBuf, cur, est.Mask.Has, rng) })
			if len(batch) == 0 {
				break
			}
			measure(batch, func(m probe.Measurement, findings []obs.Finding) {
				res.Measurements++
				informative, foundLink, foundNon := false, false, false
				want := asgraph.MakePair(m.LinkI, m.LinkJ)
				for _, f := range findings {
					if f.Pair == want {
						informative = true
						if f.Direct {
							foundLink = true
						} else {
							foundNon = true
						}
					}
				}
				report(m, informative)
				res.Calibrations = append(res.Calibrations, metascritic.Calibration{
					P: m.P, Informative: informative,
					FoundLink: foundLink, FoundNon: foundNon,
					Exploration: m.Exploration,
					VP:          m.VP, Target: m.Target,
					LinkI: m.LinkI, LinkJ: m.LinkJ, Strat: m.Strat,
				})
			})
			refresh()
			if est.Mask.Count() == countBefore {
				stale++
				if stale >= 2 {
					break
				}
			} else {
				stale = 0
			}
		}
		return (est.Mask.Count() - before) / 2
	}

	rcfg := cfg.Rank
	rcfg.Seed = cfg.Seed
	var rres rank.Result
	t.do("rank.estimate", true, func() { rres = rank.Estimate(est.E, est.Mask, features, topUp, rcfg) })
	res.Rank = rres.Rank
	res.RankHistory = rres.History
	res.Estimate = est
	res.StrategyRates = sel.StrategyRates()

	opts := als.Options{
		Rank:          rres.Rank,
		Lambda:        rcfg.Lambda,
		FeatureWeight: rcfg.FeatureWeight,
		Iterations:    rcfg.Iterations + 5,
		Seed:          cfg.Seed,
	}
	var probNoF, probF *als.Problem
	t.do("als.new_problem", true, func() {
		probNoF = als.NewProblem(est.E, est.Mask, nil)
		if features != nil && features.Cols > 0 {
			probF = als.NewProblem(est.E, est.Mask, features)
		}
	})
	if cfg.Tune {
		var tr als.TuneResult
		t.do("als.tune", true, func() { tr = als.TuneWith(probNoF, probF, est.E, est.Mask, rres.Rank, rng) })
		opts.Lambda = tr.Lambda
		opts.FeatureWeight = tr.FeatureWeight
	}
	res.Lambda = opts.Lambda
	res.FeatureWeight = opts.FeatureWeight
	prob := probNoF
	if opts.FeatureWeight > 0 && probF != nil {
		prob = probF
	}
	t.do("als.complete", true, func() { res.Ratings, res.Factors = prob.CompleteFactors(opts, nil, nil) })
	t.do("threshold.pick", true, func() { res.Threshold = pickThreshold(t, est, prob, opts, rng) })
	return res
}

// pickThreshold is the λ holdout search of Pipeline.Run: hold out a fifth
// of every row's observed entries, complete without them, and take the
// F1-maximizing threshold, clamped to [0.1, 0.95].
func pickThreshold(t *tracer, est *obs.Estimate, prob *als.Problem, opts als.Options, rng *rand.Rand) float64 {
	var holdout [][2]int
	ov := mat.NewOverlay(est.Mask)
	n := est.Mask.N()
	for i := 0; i < n; i++ {
		entries := est.Mask.RowEntries(i)
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		k := len(entries) / 5
		for _, j := range entries[:k] {
			if i < j && ov.Has(i, j) {
				ov.Remove(i, j)
				holdout = append(holdout, [2]int{i, j})
			}
		}
	}
	if len(holdout) < 5 {
		return 0.3
	}
	var completed *mat.Matrix
	t.do("als.complete", true, func() { completed = prob.Complete(opts, ov) })
	scores := make([]float64, len(holdout))
	labels := make([]bool, len(holdout))
	for k, h := range holdout {
		scores[k] = completed.At(h[0], h[1])
		labels[k] = est.E.At(h[0], h[1]) > 0
	}
	thr, _ := stats.BestF1Threshold(scores, labels)
	if thr < 0.1 {
		thr = 0.1
	}
	if thr > 0.95 {
		thr = 0.95
	}
	return thr
}
