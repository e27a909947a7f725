package probe

// The selection core as it was before entry scores were memoized, RNG
// draws were split from measurement building, exploration candidates
// were heap-ordered and VP categories became index lists: EntryProb,
// SelectBatch and their helpers, BootstrapPlan, the VP categorization and
// the strategy rate, frozen verbatim (receiver and type names aside) as
// the oracle for the A/B tests below. The current selector must return
// the same bootstrap plans, batches and EntryProb results and leave the
// RNG in the same state after each of them.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"metascritic/internal/asgraph"
)

// refSelector runs the frozen selection core over an embedded Selector,
// sharing its unchanged parts (target categorization, penalties, Report)
// but keeping its own VP categories and strategy rates.
type refSelector struct {
	*Selector
	vpCats        [][]refVPCat
	fillScratch   []int
	pendingMark   []bool
	perRowScratch []int
	candSorter    refCandSorter
	sampleScratch []VP
	idxScratch    []int32
	weightScratch []float64
	// Result slots for the allocation-free entryProb: A and B hold the
	// two orientations of the pair under evaluation, best holds the
	// winner across pairs (so later evaluations cannot clobber it).
	measureA, measureB, measureBest Measurement
}

// refVPCat is one non-empty vantage-point category of a member row: the
// VPs plus their indices into Selector.vps (for the dense score table).
type refVPCat struct {
	key  int
	vps  []VP
	idxs []int32
}

func newRefSelector(w selectorWorld) *refSelector {
	return &refSelector{
		Selector: NewSelector(w.g, 0, w.members, w.vps, w.hitlist),
		vpCats:   make([][]refVPCat, len(w.members)),
	}
}

type refExploreCand struct{ i, j, sum int }

type refCandSorter struct{ cands []refExploreCand }

func (s *refCandSorter) Len() int { return len(s.cands) }
func (s *refCandSorter) Less(a, b int) bool {
	ca, cb := &s.cands[a], &s.cands[b]
	if ca.sum != cb.sum {
		return ca.sum < cb.sum
	}
	if ca.i != cb.i {
		return ca.i < cb.i
	}
	return ca.j < cb.j
}
func (s *refCandSorter) Swap(a, b int) { s.cands[a], s.cands[b] = s.cands[b], s.cands[a] }

// BootstrapPlan samples up to perStrategy concrete measurements for every
// strategy that has available (vantage point, target) pairs, drawn from
// random member entries. Running the plan and reporting outcomes
// calibrates the initial per-strategy success probabilities (§3.3.2
// "Initial Estimation of P_m").
func (s *refSelector) BootstrapPlan(perStrategy, maxEntriesScanned int, rng *rand.Rand) []Measurement {
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
					VP:     vc.vps[rng.Intn(len(vc.vps))],
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

// vpCategories returns the vantage points of member row i grouped by
// (geo, topo) category, as a dense list sorted by category key, cached.
func (s *refSelector) vpCategories(i int) []refVPCat {
	if c := s.vpCats[i]; c != nil {
		return c
	}
	asI := s.Members[i]
	byKey := map[int]int{} // key -> index into cats
	cats := []refVPCat{}
	for _, vp := range s.vps {
		geo := s.G.ScopeOfMetros(vp.Metro, s.Metro)
		topo := s.vpTopoOf(vp, asI)
		key := int(geo)*int(numVPTopo) + int(topo)
		ci, ok := byKey[key]
		if !ok {
			ci = len(cats)
			byKey[key] = ci
			cats = append(cats, refVPCat{key: key})
		}
		// Canonicalize duplicate VP values (two probes in the same AS at
		// the same metro) onto one score-table index, matching the
		// value-keyed scoring they'd share in a map.
		vi, _ := s.vpIndexOf(vp)
		cats[ci].vps = append(cats[ci].vps, vp)
		cats[ci].idxs = append(cats[ci].idxs, vi)
	}
	sort.Slice(cats, func(a, b int) bool { return cats[a].key < cats[b].key })
	s.vpCats[i] = cats
	return cats
}

// baseRate returns the prior-informed success rate of a strategy.
func (s *refSelector) baseRate(id int) float64 {
	return s.stratSucc[id] / s.stratTrial[id]
}

// EntryProb returns P_ijm: the best estimated probability, over all
// strategies with available (vp, target) pairs, that a traceroute fills
// entry (i, j) — member-row indices. The second result is the best
// concrete measurement achieving it (freshly allocated; the batch
// selection loops use entryProb with a caller-owned slot instead).
func (s *refSelector) EntryProb(i, j int, rng *rand.Rand) (float64, *Measurement) {
	var m Measurement
	p := s.entryProb(i, j, rng, &m)
	if p == 0 {
		return 0, nil
	}
	return p, &m
}

// entryProb is the allocation-free core of EntryProb: it fills out with
// the best concrete measurement and returns its probability (0 when no
// measurement is possible, leaving out untouched).
func (s *refSelector) entryProb(i, j int, rng *rand.Rand, out *Measurement) float64 {
	asI, asJ := s.Members[i], s.Members[j]
	bestP := 0.0
	bestV, bestT := -1, -1
	vcats := s.vpCategories(i)
	tcats := s.targetsFor(j)
	entryPen := s.entryPenaltyFor(i, j)
	pens := s.penalty[i*len(s.Members)+j]
	for vi := range vcats {
		vc := &vcats[vi]
		vbase := vc.key * numTgtKeys
		nv := float64(len(vc.vps))
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
			// The pool-size boost is a mild tie-breaker (§3.3.2); the
			// learned per-strategy rate dominates.
			p := s.baseRate(id) * pen * (0.85 + 0.15*boost)
			if p > bestP {
				bestP = p
				bestV, bestT = vi, ti
			}
		}
	}
	if bestV < 0 {
		return 0
	}
	// Materialize the concrete measurement only for the winning category.
	vc := &vcats[bestV]
	tc := &tcats[bestT]
	*out = Measurement{
		VP:     s.pickVP(vc.vps, vc.idxs, i, rng),
		Target: tc.tgts[rng.Intn(len(tc.tgts))],
		LinkI:  asI, LinkJ: asJ,
		Strat: strategyFromKeys(vc.key, tc.key), P: bestP,
	}
	return bestP
}

// pickVP selects a vantage point with probability proportional to its
// informativeness score for member row i (biased random, §3.3.2). idxs
// holds the VPs' indices into s.vps (parallel to vps) for the score table.
func (s *refSelector) pickVP(vps []VP, idxs []int32, i int, rng *rand.Rand) VP {
	if len(vps) == 1 {
		return vps[0]
	}
	// Large categories (hundreds of "elsewhere" probes) are sampled: a
	// biased pick among 24 random candidates behaves like the full scan
	// at a fraction of the cost.
	if len(vps) > 24 {
		if cap(s.sampleScratch) < 24 {
			s.sampleScratch = make([]VP, 24)
			s.idxScratch = make([]int32, 24)
		}
		sample, sidx := s.sampleScratch[:24], s.idxScratch[:24]
		for k := range sample {
			pick := rng.Intn(len(vps))
			sample[k] = vps[pick]
			sidx[k] = idxs[pick]
		}
		vps, idxs = sample, sidx
	}
	if cap(s.weightScratch) < len(vps) {
		s.weightScratch = make([]float64, len(vps))
	}
	weights := s.weightScratch[:len(vps)]
	total := 0.0
	scores := s.vpScore[i]
	for k := range vps {
		w := 0.2
		if scores != nil {
			if c := &scores[idxs[k]]; c.total > 0 {
				w += c.good / c.total
			}
		}
		weights[k] = w
		total += w
	}
	r := rng.Float64() * total
	for k, w := range weights {
		r -= w
		if r <= 0 {
			return vps[k]
		}
	}
	return vps[len(vps)-1]
}

// SelectBatch chooses up to size measurements using ε-greedy
// exploitation/exploration over rows that still need entries: need[i] is
// the number of additional entries row i requires (rows with need <= 0 are
// skipped). Fill state is updated optimistically within the batch.
//
// Ordered-commit contract: the returned batch order is significant. The
// measurement pipeline may execute the batch's traceroutes concurrently,
// but it calls Report (and consumes the selector's RNG) strictly in batch
// order, so the selector's statistics — and every batch SelectBatch
// chooses afterwards — are identical to a serial run.
func (s *refSelector) SelectBatch(size int, eps float64, rowFill []int, need []int, has func(i, j int) bool, rng *rand.Rand) []Measurement {
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
	var out []Measurement
	for len(out) < size {
		explore := rng.Float64() < eps
		var m *Measurement
		if explore {
			m = s.selectExplore(fill, need, has, pending, perRow, rng)
		}
		if m == nil {
			m = s.selectExploit(fill, need, has, pending, rng)
		}
		if m == nil {
			break // nothing measurable remains
		}
		i, j := s.Index[m.LinkI], s.Index[m.LinkJ]
		pending[i*n+j] = true
		pending[j*n+i] = true
		fill[i]++
		fill[j]++
		out = append(out, *m)
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
func (s *refSelector) selectExploit(fill, need []int, has func(i, j int) bool, pending []bool, rng *rand.Rand) *Measurement {
	n := len(s.Members)
	order := s.rowsByFill(fill, need, rng)
	for _, i := range order {
		bestP := 0.1
		var best *Measurement
		for j := 0; j < n; j++ {
			if j == i || has(i, j) || pending[i*n+j] {
				continue
			}
			// A link can be measured from either side: probe near i
			// toward j, or near j toward i. Take the better orientation.
			p := s.entryProb(i, j, rng, &s.measureA)
			m := &s.measureA
			if p == 0 {
				m = nil
			}
			if p2 := s.entryProb(j, i, rng, &s.measureB); p2 > p {
				p, m = p2, &s.measureB
			}
			if p > bestP && m != nil {
				bestP = p
				s.measureBest = *m
				s.measureBest.P = p
				best = &s.measureBest
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// selectExplore picks the (i, j) minimizing fill[i]+fill[j] that has any
// possible measurement, capped at one exploration per row per batch and
// one per entry ever (§3.3.1).
func (s *refSelector) selectExplore(fill, need []int, has func(i, j int) bool, pending []bool, perRow []int, rng *rand.Rand) *Measurement {
	n := len(s.Members)
	cands := s.candSorter.cands[:0]
	for i := 0; i < n; i++ {
		if need[i] <= 0 || perRow[i] >= 1 {
			continue
		}
		for j := i + 1; j < n; j++ {
			if has(i, j) || pending[i*n+j] || s.explored[i*n+j] {
				continue
			}
			cands = append(cands, refExploreCand{i, j, fill[i] + fill[j]})
		}
	}
	s.candSorter.cands = cands
	if len(cands) == 0 {
		return nil
	}
	// The (sum, i, j) comparator is a total order (pairs are unique), so
	// an unstable sort yields the same permutation sort.Slice did.
	sort.Sort(&s.candSorter)
	// Walk candidates in order until one has a feasible measurement,
	// trying both orientations and keeping the better one.
	for _, c := range cands {
		p1 := s.entryProb(c.i, c.j, rng, &s.measureA)
		m := &s.measureA
		if p1 == 0 {
			m = nil
		}
		if p2 := s.entryProb(c.j, c.i, rng, &s.measureB); m == nil || (p2 != 0 && p2 > p1) {
			if p2 == 0 {
				m = nil
			} else {
				m = &s.measureB
			}
		}
		if m != nil {
			m.Exploration = true
			s.explored[c.i*n+c.j] = true
			perRow[c.i]++
			perRow[c.j]++
			return m
		}
	}
	return nil
}

// selectorWorld is a random metro: a graph with a transit hierarchy,
// footprints, an IXP at the selector's metro, vantage points, a hitlist
// and a member list.
type selectorWorld struct {
	g       *asgraph.Graph
	members []int
	vps     []VP
	hitlist []int
}

// randomSelectorWorld draws a world of nAS ASes of which nMembers are
// members of metro 0, with nVPs vantage points. Metros 0–1 share a
// country, metro 2 shares the continent and the rest are elsewhere, so
// every geographic scope occurs.
func randomSelectorWorld(rng *rand.Rand, nAS, nMembers, nVPs int) selectorWorld {
	g := asgraph.NewGraph()
	g.Continents = []string{"EU", "NA"}
	g.Countries = []asgraph.Country{{Code: "NL", Continent: 0}, {Code: "DE", Continent: 0}, {Code: "US", Continent: 1}}
	nMetros := 4 + rng.Intn(3)
	for m := 0; m < nMetros; m++ {
		country := 2
		switch m {
		case 0, 1:
			country = 0
		case 2:
			country = 1
		}
		g.Metros = append(g.Metros, &asgraph.Metro{Index: m, Name: fmt.Sprintf("m%d", m), Country: country})
	}
	g.IXPs = []*asgraph.IXP{{Index: 0, Name: "ix0", Metro: 0}}
	for a := 0; a < nAS; a++ {
		metros := []int{0}
		for m := 1; m < nMetros; m++ {
			if rng.Intn(3) == 0 {
				metros = append(metros, m)
			}
		}
		as := &asgraph.AS{ASN: 1000 + a, Metros: metros}
		if rng.Intn(3) == 0 {
			as.IXPs = []int{0}
			g.IXPs[0].Members = append(g.IXPs[0].Members, a)
		}
		g.AddAS(as)
	}
	// Providers have lower indices, so the hierarchy is acyclic.
	for a := 1; a < nAS; a++ {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			g.AddC2P(a, rng.Intn(a))
		}
	}
	w := selectorWorld{g: g}
	for _, a := range rng.Perm(nAS)[:nMembers] {
		w.members = append(w.members, a)
	}
	for k := 0; k < nVPs; k++ {
		w.vps = append(w.vps, VP{AS: rng.Intn(nAS), Metro: rng.Intn(nMetros)})
	}
	for a := 0; a < nAS; a++ {
		if rng.Intn(4) != 0 {
			w.hitlist = append(w.hitlist, a)
		}
	}
	return w
}

// vpCategorySizes counts materialized measurements by the size of the
// VP category they were drawn from: 1, 2–24 and more than 24.
type vpCategorySizes [3]int

func (c *vpCategorySizes) add(s *Selector, m Measurement) {
	key := int(m.Strat.VPGeo)*int(numVPTopo) + int(m.Strat.VPTop)
	switch nv := len(catVPs(s, s.vpCategories(s.Index[m.LinkI]), key)); {
	case nv == 1:
		c[0]++
	case nv <= vpSampleSize:
		c[1]++
	default:
		c[2]++
	}
}

// compareWithReference drives the current selector and the frozen one
// through the same random campaign and fails on the first difference in
// a batch, an EntryProb result or the RNG state.
func compareWithReference(t *testing.T, seed int64, sizes *vpCategorySizes) {
	t.Helper()
	drv := rand.New(rand.NewSource(seed))
	nAS := 4 + drv.Intn(40)
	nMembers := 2 + drv.Intn(nAS-1)
	nVPs := []int{1 + drv.Intn(3), 4 + drv.Intn(30), 40 + drv.Intn(120)}[drv.Intn(3)]
	w := randomSelectorWorld(drv, nAS, nMembers, nVPs)
	eps := []float64{0, 0.1, 0.5, 1}[drv.Intn(4)]

	cur := NewSelector(w.g, 0, w.members, w.vps, w.hitlist)
	ref := newRefSelector(w)
	// Half the cases install pooled priors, before the first batch or
	// between two later ones (InitPriors must invalidate entry scores).
	priorBatch := -1
	if drv.Intn(2) == 0 {
		priorBatch = drv.Intn(4)
	}
	rngCur := rand.New(rand.NewSource(seed))
	rngRef := rand.New(rand.NewSource(seed))
	sameRNG := func(what string) {
		t.Helper()
		if a, b := rngCur.Int63(), rngRef.Int63(); a != b {
			t.Fatalf("seed %d: RNG diverged after %s", seed, what)
		}
	}

	if drv.Intn(2) == 0 {
		perStrategy, scans := 1+drv.Intn(3), 1+drv.Intn(100)
		got := cur.BootstrapPlan(perStrategy, scans, rngCur)
		want := ref.BootstrapPlan(perStrategy, scans, rngRef)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: bootstrap plans differ\n got %+v\nwant %+v", seed, got, want)
		}
		sameRNG("bootstrap plan")
		for _, m := range got {
			informative := drv.Intn(4) == 0
			cur.Report(m, informative)
			ref.Report(m, informative)
		}
	}

	n := len(w.members)
	mask := make([]bool, n*n)
	has := func(i, j int) bool { return mask[i*n+j] }
	fill := make([]int, n)
	need := make([]int, n)
	for batch := 0; batch < 8; batch++ {
		if batch == priorBatch {
			var prior [NumStrategies]float64
			for k := range prior {
				prior[k] = drv.Float64()
			}
			weight := float64(1 + drv.Intn(40))
			cur.InitPriors(prior, weight)
			ref.InitPriors(prior, weight)
		}
		for i := range need {
			need[i] = drv.Intn(4) - 1
		}
		size := 1 + drv.Intn(3*n)
		got := cur.SelectBatch(size, eps, fill, need, has, rngCur)
		want := ref.SelectBatch(size, eps, fill, need, has, rngRef)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d batch %d (eps %v): batches differ\n got %+v\nwant %+v", seed, batch, eps, got, want)
		}
		sameRNG(fmt.Sprintf("batch %d", batch))
		for _, m := range got {
			if sizes != nil {
				sizes.add(cur, m)
			}
			informative := drv.Intn(3) == 0
			cur.Report(m, informative)
			ref.Report(m, informative)
			if informative {
				i, j := cur.Index[m.LinkI], cur.Index[m.LinkJ]
				if !mask[i*n+j] {
					mask[i*n+j], mask[j*n+i] = true, true
					fill[i]++
					fill[j]++
				}
			}
		}
		i, j := drv.Intn(n), drv.Intn(n)
		p1, m1 := cur.EntryProb(i, j, rngCur)
		p2, m2 := ref.EntryProb(i, j, rngRef)
		if p1 != p2 || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("seed %d: EntryProb(%d, %d) = %v %+v, reference %v %+v", seed, i, j, p1, m1, p2, m2)
		}
		sameRNG("EntryProb")
	}
}

func TestSelectBatchMatchesReference(t *testing.T) {
	var sizes vpCategorySizes
	for seed := int64(1); seed <= 300; seed++ {
		compareWithReference(t, seed, &sizes)
	}
	// The cases must materialize picks from every VP category regime:
	// single VP (no draw), weighted pick, and sampled weighted pick.
	for k, c := range sizes {
		if c == 0 {
			t.Fatalf("no measurement drawn from VP category regime %d (sizes %v)", k, sizes)
		}
	}
}

func FuzzSelectBatchMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compareWithReference(t, seed, nil)
	})
}
