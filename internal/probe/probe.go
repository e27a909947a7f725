// Package probe implements metAScritic's targeted-measurement machinery
// (§3.3): the categorization of vantage points and targets into 144
// measurement strategies, the per-link success-probability matrix P_m, the
// ε-greedy exploitation/exploration batch selection, per-vantage-point
// scoring, and the hierarchical cross-metro prior of Appx. D.6.
//
// The selector is the inner loop of a whole run, so each unit of its work
// runs once:
//
//   - Scoring. An ordered entry's probability is the best of its 144
//     strategy cells. The winning (P, VP category, target category) is
//     memoized per entry and stamped with a statistics generation that
//     Report and InitPriors bump — the only writers of the strategy
//     rates, penalties and VP scores — so within a SelectBatch every
//     entry is scored at most once, however often its row is rescanned.
//   - Drawing. Every scanned candidate with P > 0 consumes the RNG as if
//     its measurement were built (VP sample positions, the weighted-pick
//     variate, the target position). Winner and orientation choices
//     compare P values known before any draw, so only the current
//     winner's draws are kept; a loser's land in a scratch record that
//     is never read. The VP weight table and the Measurement are
//     materialized for the batch's winners alone.
//   - Exploration. The explore candidates of a batch are heapified once
//     by (fill sum, i, j). Within a batch the filters only shrink and the
//     fills only rise, so popping with lazy drops and re-sifts walks the
//     candidates in exactly the order a fresh sort per pick would.
//
// Per-pair state (memo, penalties, exploration marks, VP scores, category
// caches) lives in dense slices indexed by member row; a row's VP
// categories are index lists into one shared VP array. The selection
// semantics — iteration order, tie-breaking, and the exact RNG
// consumption sequence — are those of the original map-based
// implementation. A Selector is not safe for concurrent use: Report's call
// order shapes future batches.
package probe

import (
	"math"
	"math/rand"
	"sort"

	"metascritic/internal/asgraph"
)

// VP is a vantage point: a probe hosted by an AS at a metro.
type VP struct {
	AS    int
	Metro int
}

// VPTopo is the topological relation of a vantage point to the near-side
// AS i of a link.
type VPTopo int

// Vantage-point topological categories.
const (
	VPInAS VPTopo = iota
	VPInCone
	VPOutside
	numVPTopo
)

// TgtTopo is the topological relation of a target to the far-side AS j.
type TgtTopo int

// Target topological categories. TgtAdjIXP replaces "outside the cone"
// for targets: addresses adjacent to an IXP in the metro (§3.3.2).
const (
	TgtInAS TgtTopo = iota
	TgtInCone
	TgtAdjIXP
	numTgtTopo
)

// Strategy is one of the 144 (vantage-point category, target category)
// combinations.
type Strategy struct {
	VPGeo  asgraph.GeoScope
	VPTop  VPTopo
	TgtGeo asgraph.GeoScope
	TgtTop TgtTopo
}

// NumStrategies is the total number of measurement strategies.
const NumStrategies = int(asgraph.NumGeoScopes) * int(numVPTopo) * int(asgraph.NumGeoScopes) * int(numTgtTopo)

// numTgtKeys is the number of distinct target category keys; a strategy ID
// factors as vpKey*numTgtKeys + tgtKey (see ID), which the hot path uses
// to combine cached category keys without rebuilding Strategy values.
const numTgtKeys = int(asgraph.NumGeoScopes) * int(numTgtTopo)

// ID returns the strategy's dense index in [0, NumStrategies).
func (s Strategy) ID() int {
	return ((int(s.VPGeo)*int(numVPTopo)+int(s.VPTop))*int(asgraph.NumGeoScopes)+int(s.TgtGeo))*int(numTgtTopo) + int(s.TgtTop)
}

// StrategyFromID inverts ID.
func StrategyFromID(id int) Strategy {
	tt := id % int(numTgtTopo)
	id /= int(numTgtTopo)
	tg := id % int(asgraph.NumGeoScopes)
	id /= int(asgraph.NumGeoScopes)
	vt := id % int(numVPTopo)
	id /= int(numVPTopo)
	return Strategy{VPGeo: asgraph.GeoScope(id), VPTop: VPTopo(vt), TgtGeo: asgraph.GeoScope(tg), TgtTop: TgtTopo(tt)}
}

// strategyFromKeys rebuilds the Strategy of a (vpKey, tgtKey) category
// pair; equivalent to StrategyFromID(vkey*numTgtKeys+tkey).
func strategyFromKeys(vkey, tkey int) Strategy {
	return Strategy{
		VPGeo:  asgraph.GeoScope(vkey / int(numVPTopo)),
		VPTop:  VPTopo(vkey % int(numVPTopo)),
		TgtGeo: asgraph.GeoScope(tkey / int(numTgtTopo)),
		TgtTop: TgtTopo(tkey % int(numTgtTopo)),
	}
}

// Target is a candidate traceroute destination: an address in AS at metro.
type Target struct {
	AS    int
	Metro int
}

// Measurement is one proposed traceroute.
type Measurement struct {
	VP          VP
	Target      Target
	LinkI       int // near-side member AS (graph index)
	LinkJ       int // far-side member AS
	Strat       Strategy
	P           float64 // estimated probability of being informative
	Exploration bool
}

// vpCat is one non-empty vantage-point category of a member row: the
// indices into Selector.vps of its VPs, in vps order, each canonicalized
// so that duplicate VP values (two probes in the same AS at the same
// metro) share one slot of the dense score table.
type vpCat struct {
	key  int
	idxs []int32
}

// tgtCat is one non-empty target category of a member row.
type tgtCat struct {
	key  int
	tgts []Target
}

// numVPKeys is the number of distinct vantage-point category keys.
const numVPKeys = int(asgraph.NumGeoScopes) * int(numVPTopo)

// counter tracks informative/total outcomes of a (VP, member) pairing.
type counter struct{ good, total float64 }

// Selector chooses measurements for one metro. It sees only public data:
// the AS graph (relationships, footprints, IXP membership), probe
// locations, and a hitlist of probe-able targets. A Selector is not safe
// for concurrent use.
type Selector struct {
	G     *asgraph.Graph
	Metro int
	// Members are the ASes of the connectivity matrix, row order.
	Members []int
	Index   map[int]int

	vps []VP
	// hitlist lists believed-responsive target ASes (ISI hitlist analog).
	hitlist map[int]bool

	// Strategy-level statistics (Beta-style pseudo-counts).
	stratSucc  [NumStrategies]float64
	stratTrial [NumStrategies]float64

	// Per-entry penalties, dense by member-row pair (i*n+j): repeated
	// uninformative attempts at the same entry with the same strategy
	// halve its probability (§3.3.2), and a milder entry-wide factor
	// discourages cycling through strategies on an elusive link.
	// penalty is keyed by the ORDERED pair and holds a lazily allocated
	// per-strategy factor slice (0 = no penalty); entryPenalty is keyed
	// by the unordered pair (i<j) with 0 meaning no penalty (factor 1).
	penalty      map[int][]float64
	entryPenalty []float64
	// explored marks entries that spent their one exploration attempt
	// (unordered, i<j).
	explored []bool

	// VP scoring: per (member row, vp index) informative/total counts.
	// Rows are allocated lazily on first Report for the member, so the
	// table stays proportional to the measured rows. vpIndex resolves a
	// VP value back to its index in vps (built on first Report).
	vpScore [][]counter
	vpIndex map[VP]int32
	// vpGeo and vpCanon hold each VP's geographic scope relative to the
	// metro and its canonical score-table index (built with the first
	// row's categories).
	vpGeo      []asgraph.GeoScope
	vpCanon    []int32
	keyScratch []uint8

	// Cached per-member-row VP and target categorizations as dense lists
	// sorted by category key (map iteration order is random; the hot
	// path must be deterministic and cannot afford re-sorting).
	vpCats  [][]vpCat
	tgtCats [][]tgtCat

	// scores memoizes each ordered entry's winning strategy (i*n+j),
	// allocated on first use; an entry is current when its gen equals
	// gen, which Report and InitPriors bump.
	scores []entryScore
	gen    uint32

	// Batch-scoped scratch, reused across SelectBatch calls (one Selector
	// serves one goroutine).
	fillScratch   []int
	pendingMark   []bool // n×n: entry already chosen in this batch
	perRowScratch []int  // explorations per row in this batch
	rowSorter     rowFillSorter
	// explore is the batch's exploration candidate heap, built by the
	// batch's first exploration pick (exploreBuilt).
	explore      exploreHeap
	exploreBuilt bool
	// won holds the RNG draws of the current winning candidate; lost
	// receives a losing candidate's draws.
	won, lost entryDraw
}

// entryScore is one ordered entry's memoized winning strategy: its
// probability and the positions of the winning VP and target categories
// in the rows' category lists (at most 12 each). 16 B per entry.
type entryScore struct {
	p    float64
	gen  uint32
	v, t uint8
}

// vpSampleSize is the number of VPs sampled (with replacement) from a
// category larger than it before the weighted pick.
const vpSampleSize = 24

// entryDraw holds the raw RNG values one entry's measurement consumes:
// the sampled VP positions (categories of more than vpSampleSize VPs), the
// weighted pick's uniform variate (more than one VP) and the target
// position.
type entryDraw struct {
	sample [vpSampleSize]int32
	u      float64
	tgt    int
}

// rowFillSorter is a reusable sort.Interface: the exploit loop sorts the
// rows once per chosen measurement, and sort.Slice's reflect-based
// swapper allocates per call while sort.Stable on a pointer receiver
// does not.
type rowFillSorter struct {
	rows []int
	fill []int
}

func (s *rowFillSorter) Len() int           { return len(s.rows) }
func (s *rowFillSorter) Less(a, b int) bool { return s.fill[s.rows[a]] < s.fill[s.rows[b]] }
func (s *rowFillSorter) Swap(a, b int)      { s.rows[a], s.rows[b] = s.rows[b], s.rows[a] }

// exploreCand is an exploration candidate: member rows i < j with the
// fill sum fill[i]+fill[j] it was last keyed by.
type exploreCand struct{ sum, i, j int32 }

func (a exploreCand) less(b exploreCand) bool {
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// exploreHeap is a binary min-heap of candidates under (sum, i, j), a
// total order since pairs are unique.
type exploreHeap []exploreCand

func (h exploreHeap) down(k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

func (h exploreHeap) pop() exploreHeap {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	h.down(0)
	return h
}

// NewSelector builds a selector for a metro over the given members, probes
// and hitlist of target ASes.
func NewSelector(g *asgraph.Graph, metro int, members []int, vps []VP, hitlist []int) *Selector {
	n := len(members)
	s := &Selector{
		G:            g,
		Metro:        metro,
		Members:      members,
		Index:        make(map[int]int, n),
		vps:          vps,
		hitlist:      map[int]bool{},
		penalty:      map[int][]float64{},
		entryPenalty: make([]float64, n*n),
		explored:     make([]bool, n*n),
		vpScore:      make([][]counter, n),
		vpCats:       make([][]vpCat, n),
		tgtCats:      make([][]tgtCat, n),
		gen:          1,
	}
	for i, as := range members {
		s.Index[as] = i
	}
	for _, t := range hitlist {
		s.hitlist[t] = true
	}
	// Informed default prior encoding what the paper's bootstrap phase
	// (§3.3.2) discovers: traceroutes from vantage points inside (or in
	// the customer cone of) the near-side AS, geographically close to the
	// metro, are far more likely to traverse the target interconnection;
	// probes elsewhere almost never do. The prior is soft (6 pseudo
	// trials) so per-metro evidence quickly dominates.
	for id := range s.stratSucc {
		st := StrategyFromID(id)
		p := 0.75 *
			[...]float64{1.0, 0.65, 0.4, 0.25}[st.VPGeo] *
			[...]float64{1.0, 0.6, 0.06}[st.VPTop] *
			[...]float64{1.0, 0.75, 0.55, 0.4}[st.TgtGeo] *
			[...]float64{1.0, 0.55, 0.9}[st.TgtTop]
		s.stratSucc[id] = p * 4
		s.stratTrial[id] = 4
	}
	return s
}

// InitPriors seeds the strategy statistics from success rates learned at
// other metros (the hierarchical partial-pooling prior of Appx. D.6).
// weight is the pseudo-trial count given to the prior.
func (s *Selector) InitPriors(prior [NumStrategies]float64, weight float64) {
	s.invalidate()
	for i := range s.stratSucc {
		s.stratSucc[i] = prior[i]*weight + 1
		s.stratTrial[i] = weight + 6
	}
}

// StrategyRates exports the current per-strategy success estimates, to be
// pooled into priors for new metros.
func (s *Selector) StrategyRates() [NumStrategies]float64 {
	var out [NumStrategies]float64
	for i := range out {
		out[i] = s.stratSucc[i] / s.stratTrial[i]
	}
	return out
}

// BootstrapPlan samples up to perStrategy concrete measurements for every
// strategy that has available (vantage point, target) pairs, drawn from
// random member entries. Running the plan and reporting outcomes
// calibrates the initial per-strategy success probabilities (§3.3.2
// "Initial Estimation of P_m").
func (s *Selector) BootstrapPlan(perStrategy, maxEntriesScanned int, rng *rand.Rand) []Measurement {
	n := len(s.Members)
	if n < 2 {
		return nil
	}
	counts := make([]int, NumStrategies)
	var plan []Measurement
	for scanned := 0; scanned < maxEntriesScanned; scanned++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j {
			continue
		}
		asI, asJ := s.Members[i], s.Members[j]
		vcats := s.vpCategories(i)
		tcats := s.targetsFor(j)
		for _, vc := range vcats {
			for _, tc := range tcats {
				id := vc.key*numTgtKeys + tc.key
				if counts[id] >= perStrategy {
					continue
				}
				counts[id]++
				plan = append(plan, Measurement{
					VP:     s.vps[vc.idxs[rng.Intn(len(vc.idxs))]],
					Target: tc.tgts[rng.Intn(len(tc.tgts))],
					LinkI:  asI, LinkJ: asJ,
					Strat: strategyFromKeys(vc.key, tc.key),
					P:     s.baseRate(id),
				})
			}
		}
	}
	return plan
}

// vpTopoOf categorizes a vantage point relative to AS i.
func (s *Selector) vpTopoOf(vp VP, i int) VPTopo {
	if vp.AS == i {
		return VPInAS
	}
	if s.G.InCone(vp.AS, i) {
		return VPInCone
	}
	return VPOutside
}

// vpCategories returns the vantage points of member row i grouped by
// (geo, topo) category, as a dense list sorted by category key, cached.
// All of a row's categories share one exactly sized index array.
func (s *Selector) vpCategories(i int) []vpCat {
	if c := s.vpCats[i]; c != nil {
		return c
	}
	if s.vpGeo == nil {
		s.vpGeo = make([]asgraph.GeoScope, len(s.vps))
		s.vpCanon = make([]int32, len(s.vps))
		for k, vp := range s.vps {
			s.vpGeo[k] = s.G.ScopeOfMetros(vp.Metro, s.Metro)
			s.vpCanon[k], _ = s.vpIndexOf(vp)
		}
	}
	asI := s.Members[i]
	keys := s.keyScratch[:0]
	var counts [numVPKeys]int
	for k, vp := range s.vps {
		key := uint8(int(s.vpGeo[k])*int(numVPTopo) + int(s.vpTopoOf(vp, asI)))
		keys = append(keys, key)
		counts[key]++
	}
	s.keyScratch = keys
	// Counting sort: category key order, vps order within a category.
	var end [numVPKeys]int
	total := 0
	for key, c := range counts {
		total += c
		end[key] = total
	}
	idxs := make([]int32, len(s.vps))
	next := end
	for k := len(keys) - 1; k >= 0; k-- {
		next[keys[k]]--
		idxs[next[keys[k]]] = s.vpCanon[k]
	}
	cats := []vpCat{}
	for key, c := range counts {
		if c > 0 {
			e := end[key]
			cats = append(cats, vpCat{key: key, idxs: idxs[e-c : e : e]})
		}
	}
	s.vpCats[i] = cats
	return cats
}

// targetsFor enumerates candidate targets for the member at row j, grouped
// by (geo, topo) category as a dense list sorted by category key, cached.
// Targets outside the member's customer cone are not considered (§3.3.2);
// the AdjIXP category holds targets in the AS at the metro when it is a
// member of an IXP there.
func (s *Selector) targetsFor(j int) []tgtCat {
	if c := s.tgtCats[j]; c != nil {
		return c
	}
	asJ := s.Members[j]
	byKey := map[int]int{}
	cats := []tgtCat{}
	add := func(t Target, topo TgtTopo) {
		geo := s.G.ScopeOfMetros(t.Metro, s.Metro)
		key := int(geo)*int(numTgtTopo) + int(topo)
		ci, ok := byKey[key]
		if !ok {
			ci = len(cats)
			byKey[key] = ci
			cats = append(cats, tgtCat{key: key})
		}
		cats[ci].tgts = append(cats[ci].tgts, t)
	}
	if s.hitlist[asJ] {
		for _, m := range s.G.ASes[asJ].Metros {
			add(Target{AS: asJ, Metro: m}, TgtInAS)
			if m == s.Metro {
				for _, ix := range s.G.ASes[asJ].IXPs {
					if s.G.IXPs[ix].Metro == s.Metro {
						add(Target{AS: asJ, Metro: m}, TgtAdjIXP)
						break
					}
				}
			}
		}
	}
	// Direct customers stand in for the full cone (keeps enumeration
	// bounded; deeper cone members add little signal).
	for _, c32 := range s.G.Customers[asJ] {
		c := int(c32)
		if !s.hitlist[c] {
			continue
		}
		for _, m := range s.G.ASes[c].Metros {
			add(Target{AS: c, Metro: m}, TgtInCone)
		}
	}
	sort.Slice(cats, func(a, b int) bool { return cats[a].key < cats[b].key })
	s.tgtCats[j] = cats
	return cats
}

// baseRate returns the prior-informed success rate of a strategy.
func (s *Selector) baseRate(id int) float64 {
	return s.stratSucc[id] / s.stratTrial[id]
}

// EntryProb returns P_ijm: the best estimated probability, over all
// strategies with available (vp, target) pairs, that a traceroute fills
// entry (i, j) — member-row indices. The second result is the best
// concrete measurement achieving it (nil when P is 0).
func (s *Selector) EntryProb(i, j int, rng *rand.Rand) (float64, *Measurement) {
	e := s.score(i, j)
	if e.p == 0 {
		return 0, nil
	}
	s.draw(i, j, e, rng, true)
	m := s.materialize(i, j)
	return e.p, &m
}

// invalidate starts a new statistics generation, making every memoized
// entry score stale.
func (s *Selector) invalidate() {
	s.gen++
	if s.gen == 0 { // wrapped: stamps from 2^32 generations ago would match
		clear(s.scores)
		s.gen = 1
	}
}

// score returns the memoized winning strategy of ordered entry (i, j),
// recomputing it when the statistics changed since it was stored. P is 0
// when no (vp, target) pair exists for the entry.
func (s *Selector) score(i, j int) *entryScore {
	n := len(s.Members)
	if s.scores == nil {
		s.scores = make([]entryScore, n*n)
	}
	e := &s.scores[i*n+j]
	if e.gen == s.gen {
		return e
	}
	bestP := 0.0
	bestV, bestT := 0, 0
	vcats := s.vpCategories(i)
	tcats := s.targetsFor(j)
	entryPen := s.entryPenaltyFor(i, j)
	pens := s.penalty[i*n+j]
	for vi := range vcats {
		vc := &vcats[vi]
		vbase := vc.key * numTgtKeys
		nv := float64(len(vc.idxs))
		for ti := range tcats {
			tc := &tcats[ti]
			id := vbase + tc.key
			pen := entryPen
			if pens != nil {
				if p := pens[id]; p != 0 {
					pen *= p
				}
			}
			avail := nv * float64(len(tc.tgts))
			boost := avail / (avail + 3)
			// The pool-size boost is a mild tie-breaker (§3.3.2), not a
			// driver: the learned per-strategy rate dominates.
			p := s.baseRate(id) * pen * (0.85 + 0.15*boost)
			if p > bestP {
				bestP = p
				bestV, bestT = vi, ti
			}
		}
	}
	*e = entryScore{p: bestP, gen: s.gen, v: uint8(bestV), t: uint8(bestT)}
	return e
}

// draw consumes the RNG exactly as building entry (i, j)'s measurement
// does: vpSampleSize VP positions when the winning VP category is larger
// than that, the weighted pick's variate when it holds more than one VP,
// then the target position. An entry with P = 0 draws nothing. When keep
// is set the values land in s.won; otherwise they go to s.lost and are
// never used.
func (s *Selector) draw(i, j int, e *entryScore, rng *rand.Rand, keep bool) {
	if e.p == 0 {
		return
	}
	d := &s.lost
	if keep {
		d = &s.won
	}
	drawVP(len(s.vpCats[i][e.v].idxs), rng, d)
	d.tgt = rng.Intn(len(s.tgtCats[j][e.t].tgts))
}

// drawVP draws the VP half of an entry's measurement from a category of
// nv VPs.
func drawVP(nv int, rng *rand.Rand, d *entryDraw) {
	if nv > vpSampleSize {
		for k := range d.sample {
			d.sample[k] = int32(rng.Intn(nv))
		}
	}
	if nv > 1 {
		d.u = rng.Float64()
	}
}

// materialize builds the measurement of scored entry (i, j) from the
// draws in s.won.
func (s *Selector) materialize(i, j int) Measurement {
	e := &s.scores[i*len(s.Members)+j]
	vc := &s.vpCats[i][e.v]
	tc := &s.tgtCats[j][e.t]
	return Measurement{
		VP:     s.pickVP(vc, i, &s.won),
		Target: tc.tgts[s.won.tgt],
		LinkI:  s.Members[i], LinkJ: s.Members[j],
		Strat: strategyFromKeys(vc.key, tc.key), P: e.p,
	}
}

func (s *Selector) penaltyFor(i, j, strat int) float64 {
	if m := s.penalty[i*len(s.Members)+j]; m != nil {
		if p := m[strat]; p != 0 {
			return p
		}
	}
	return 1
}

func (s *Selector) entryPenaltyFor(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if p := s.entryPenalty[i*len(s.Members)+j]; p != 0 {
		return p
	}
	return 1
}

// pickVP resolves drawn values d into a vantage point of category vc,
// chosen with probability proportional to its informativeness score for
// member row i (biased random, §3.3.2). Large categories (hundreds of
// "elsewhere" probes) are sampled: a biased pick among vpSampleSize
// random candidates behaves like the full scan at a fraction of the cost.
func (s *Selector) pickVP(vc *vpCat, i int, d *entryDraw) VP {
	nv := len(vc.idxs)
	if nv == 1 {
		return s.vps[vc.idxs[0]]
	}
	cands := nv
	if nv > vpSampleSize {
		cands = vpSampleSize
	}
	// idx is candidate k's index into s.vps and the score table.
	idx := func(k int) int32 {
		if nv > vpSampleSize {
			return vc.idxs[d.sample[k]]
		}
		return vc.idxs[k]
	}
	scores := s.vpScore[i]
	weight := func(k int) float64 {
		w := 0.2
		if scores != nil {
			if c := &scores[idx(k)]; c.total > 0 {
				w += c.good / c.total
			}
		}
		return w
	}
	total := 0.0
	for k := 0; k < cands; k++ {
		total += weight(k)
	}
	r := d.u * total
	for k := 0; k < cands; k++ {
		r -= weight(k)
		if r <= 0 {
			return s.vps[idx(k)]
		}
	}
	return s.vps[idx(cands-1)]
}

// SelectBatch chooses up to size measurements using ε-greedy
// exploitation/exploration over rows that still need entries: need[i] is
// the number of additional entries row i requires (rows with need <= 0 are
// skipped). Fill state is updated optimistically within the batch. has
// must not change during the call.
//
// Ordered-commit contract: the returned batch order is significant. The
// measurement pipeline may execute the batch's traceroutes concurrently,
// but it calls Report (and consumes the selector's RNG) strictly in batch
// order, so the selector's statistics — and every batch SelectBatch
// chooses afterwards — are identical to a serial run.
func (s *Selector) SelectBatch(size int, eps float64, rowFill []int, need []int, has func(i, j int) bool, rng *rand.Rand) []Measurement {
	n := len(s.Members)
	fill := append(s.fillScratch[:0], rowFill...)
	s.fillScratch = fill
	if s.pendingMark == nil {
		s.pendingMark = make([]bool, n*n)
		s.perRowScratch = make([]int, n)
	}
	pending := s.pendingMark
	perRow := s.perRowScratch
	for k := range perRow {
		perRow[k] = 0
	}
	s.exploreBuilt = false
	var out []Measurement
	for len(out) < size {
		explore := rng.Float64() < eps
		i, j, ok := 0, 0, false
		if explore {
			i, j, ok = s.selectExplore(fill, need, has, pending, perRow, rng)
		}
		explored := ok
		if !ok {
			i, j, ok = s.selectExploit(fill, need, has, pending, rng)
		}
		if !ok {
			break // nothing measurable remains
		}
		m := s.materialize(i, j)
		m.Exploration = explored
		pending[i*n+j] = true
		pending[j*n+i] = true
		fill[i]++
		fill[j]++
		out = append(out, m)
	}
	// Clear the pending marks this batch set (bounded by the batch size,
	// so clearing costs O(|out|), not O(n²)).
	for _, m := range out {
		i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
		pending[i*n+j] = false
		pending[j*n+i] = false
	}
	return out
}

// selectExploit picks the row with the fewest filled entries that has some
// entry with P > 0.1, then the entry with the highest probability (§3.3.1).
// It returns the winner as an ordered entry whose draws are in s.won.
func (s *Selector) selectExploit(fill, need []int, has func(i, j int) bool, pending []bool, rng *rand.Rand) (int, int, bool) {
	n := len(s.Members)
	order := s.rowsByFill(fill, need, rng)
	for _, i := range order {
		bestP := 0.1
		bi, bj := -1, -1
		for j := 0; j < n; j++ {
			if j == i || has(i, j) || pending[i*n+j] {
				continue
			}
			// A link can be measured from either side: probe near i
			// toward j, or near j toward i. Take the better orientation
			// (ties keep i→j).
			a, b := s.score(i, j), s.score(j, i)
			p, flip := a.p, b.p > a.p
			if flip {
				p = b.p
			}
			win := p > bestP
			s.draw(i, j, a, rng, win && !flip)
			s.draw(j, i, b, rng, win && flip)
			if win {
				bestP = p
				bi, bj = i, j
				if flip {
					bi, bj = j, i
				}
			}
		}
		if bi >= 0 {
			return bi, bj, true
		}
	}
	return 0, 0, false
}

// selectExplore picks the (i, j), i < j, minimizing fill[i]+fill[j] that
// has any possible measurement, trying both orientations and keeping the
// better one (§3.3.1). Each entry is explored at most once ever. Within a
// batch, a row that took part in an exploration cannot be the lower-index
// end i of another one; it may still be the higher-index end j. It returns
// the winner as an ordered entry whose draws are in s.won.
func (s *Selector) selectExplore(fill, need []int, has func(i, j int) bool, pending []bool, perRow []int, rng *rand.Rand) (int, int, bool) {
	n := len(s.Members)
	if !s.exploreBuilt {
		s.buildExplore(fill, need, has, pending, perRow)
	}
	h := s.explore
	defer func() { s.explore = h }()
	for len(h) > 0 {
		c := h[0]
		i, j := int(c.i), int(c.j)
		// has and need are fixed within a batch; these only grow.
		if perRow[i] >= 1 || pending[i*n+j] || s.explored[i*n+j] {
			h = h.pop()
			continue
		}
		// Fills only rise, so a stale key is re-sifted downwards.
		if sum := int32(fill[i] + fill[j]); sum != c.sum {
			h[0].sum = sum
			h.down(0)
			continue
		}
		h = h.pop()
		a, b := s.score(i, j), s.score(j, i)
		if a.p == 0 && b.p == 0 {
			continue // no measurement possible; draws nothing
		}
		flip := a.p == 0 || b.p > a.p
		s.draw(i, j, a, rng, !flip)
		s.draw(j, i, b, rng, flip)
		s.explored[i*n+j] = true
		perRow[i]++
		perRow[j]++
		if flip {
			return j, i, true
		}
		return i, j, true
	}
	return 0, 0, false
}

// buildExplore heapifies the batch's exploration candidates.
func (s *Selector) buildExplore(fill, need []int, has func(i, j int) bool, pending []bool, perRow []int) {
	n := len(s.Members)
	h := s.explore[:0]
	for i := 0; i < n; i++ {
		if need[i] <= 0 || perRow[i] >= 1 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if has(i, j) || pending[i*n+j] || s.explored[i*n+j] {
				continue
			}
			h = append(h, exploreCand{int32(fill[i] + fill[j]), int32(i), int32(j)})
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
	s.explore, s.exploreBuilt = h, true
}

// rowsByFill orders member rows that still need entries by increasing fill
// count, breaking ties randomly (§3.3.1). The returned slice is selector
// scratch, valid until the next call.
func (s *Selector) rowsByFill(fill, need []int, rng *rand.Rand) []int {
	rows := s.rowSorter.rows[:0]
	for i := range fill {
		if need[i] > 0 {
			rows = append(rows, i)
		}
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	s.rowSorter.rows, s.rowSorter.fill = rows, fill
	sort.Stable(&s.rowSorter)
	return rows
}

// Report feeds back whether a measurement was informative for its target
// entry, updating strategy statistics, per-entry penalties and VP scores.
// Report is not safe for concurrent use and its call order shapes future
// SelectBatch decisions; the measurement pipeline therefore serializes
// Report calls on the committing goroutine, in batch order, even when the
// traceroutes themselves ran concurrently (see the ordered-commit contract
// on SelectBatch).
func (s *Selector) Report(m Measurement, informative bool) {
	s.invalidate()
	id := m.Strat.ID()
	s.stratTrial[id]++
	if informative {
		s.stratSucc[id]++
	}
	n := len(s.Members)
	i, okI := s.Index[m.LinkI]
	j, okJ := s.Index[m.LinkJ]
	if okI && okJ {
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		if informative {
			if pens := s.penalty[i*n+j]; pens != nil {
				pens[id] = 0
			}
			s.entryPenalty[a*n+b] = 0
		} else {
			pens := s.penalty[i*n+j]
			if pens == nil {
				pens = make([]float64, NumStrategies)
				s.penalty[i*n+j] = pens
			}
			pens[id] = s.penaltyFor(i, j, id) * 0.5
			s.entryPenalty[a*n+b] = s.entryPenaltyFor(i, j) * 0.7
		}
	}
	if okI {
		scores := s.vpScore[i]
		if scores == nil {
			scores = make([]counter, len(s.vps))
			s.vpScore[i] = scores
		}
		if vi, ok := s.vpIndexOf(m.VP); ok {
			scores[vi].total++
			if informative {
				scores[vi].good++
			}
		}
	}
}

// vpIndexOf resolves a VP value back to its index in s.vps.
func (s *Selector) vpIndexOf(vp VP) (int32, bool) {
	if s.vpIndex == nil {
		s.vpIndex = make(map[VP]int32, len(s.vps))
		for i, v := range s.vps {
			s.vpIndex[v] = int32(i)
		}
	}
	vi, ok := s.vpIndex[vp]
	return vi, ok
}

// PoolPriors averages strategy rates from several metros into a single
// prior (the complete-pooling step at the top of the hierarchical model;
// metro-level deviations are learned once measurements arrive).
func PoolPriors(rates ...[NumStrategies]float64) [NumStrategies]float64 {
	var out [NumStrategies]float64
	if len(rates) == 0 {
		return out
	}
	for _, r := range rates {
		for i := range out {
			out[i] += r[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(rates))
		out[i] = math.Min(1, math.Max(0, out[i]))
	}
	return out
}
