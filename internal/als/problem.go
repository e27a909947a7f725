package als

import (
	"math/rand"
	"runtime"
	"sync"

	"metascritic/internal/mat"
)

// Problem is the reusable form of one hybrid completion problem: the
// weighted per-row observation structure over the augmented matrix
// [E | features], built once per (E, mask, features) and shared across
// holdout draws, tune grid points, and rank candidates. Rebuilding this
// structure used to dominate short completions — the rank-estimation loop
// alone runs hundreds of them per metro.
//
// Reuse contract: a Problem snapshots the mask (row layout) and feature
// normalization at construction but reads E lazily at solve time through
// stored values — so it is invalidated by ANY mutation of the mask (Set/
// Unset/CopyFrom) or of E's observed entries after construction; rebuild
// with NewProblem after targeted measurements land. Holdout draws must NOT
// mutate the mask: express them as a mat.Overlay and pass it to Complete/
// CompleteFactors, which applies the removals as per-row deltas.
//
// The link-vs-feature balance is NOT baked in: links weigh 1 and feature
// entries weigh Options.FeatureWeight at solve time, so one Problem serves
// every grid point of the tune search that keeps features enabled. (A
// FeatureWeight of 0 on a featured Problem zeroes the feature influence but
// still factors the augmented dimension; build a featureless Problem for
// bit-compatibility with the features-off path.)
//
// The f feature rows of the augmented matrix are not stored as
// observation lists: each observes every AS column in order at weight
// FeatureWeight, and no holdout touches them, so solveSide solves them as
// one block over feat (see solveFeatureRows).
type Problem struct {
	n, f int             // AS block size, feature column count
	E    *mat.Matrix     // estimated matrix the observations were drawn from
	rows [][]observation // AS rows 0..n-1
	feat *mat.Matrix     // normalized n×f feature block; nil when f == 0
}

// observation is one observed entry of the augmented matrix. Its weight is
// implicit: 1 for link entries, Options.FeatureWeight for feature entries
// (row or column in the feature block).
type observation struct {
	col   int32
	value float64
}

// NewProblem builds the per-row observation structure once. features may be
// nil (or have zero columns) for a links-only problem; pass nil when the
// intended FeatureWeight is 0 to match the features-off completion path
// exactly.
func NewProblem(E *mat.Matrix, mask *mat.Mask, features *mat.Matrix) *Problem {
	n := E.Rows
	f := 0
	var feat *mat.Matrix
	if features != nil && features.Cols > 0 {
		feat = normalizeColumns(features)
		f = feat.Cols
	}
	p := &Problem{n: n, f: f, E: E, rows: make([][]observation, n), feat: feat}
	// AS rows: link observations (mask rows are sorted, so the per-row
	// lists come out sorted by column with no re-sort), then feature
	// columns n..n+f-1 in order.
	for i := 0; i < n; i++ {
		row := mask.RowView(i)
		obs := make([]observation, 0, len(row)+f)
		for _, j := range row {
			obs = append(obs, observation{col: j, value: E.At(i, int(j))})
		}
		for c := 0; c < f; c++ {
			obs = append(obs, observation{col: int32(n + c), value: feat.At(i, c)})
		}
		p.rows[i] = obs
	}
	return p
}

// N returns the AS block dimension.
func (p *Problem) N() int { return p.n }

// Factors holds the ALS factor matrices of a completed run, returned so a
// subsequent solve at the same or a nearby rank can warm-start from them
// (the §3.2 rank sweep feeds rank r's factors into rank r+1).
type Factors struct {
	P, Q *mat.Matrix // (n+f)×k
}

// Rank returns the factorization rank of the stored factors.
func (fa *Factors) Rank() int { return fa.P.Cols }

// Rating returns entry (i, j) of the rating matrix CompleteFactors
// reconstructs from these factors, bit-for-bit: it runs reconstruct's
// loop, and swapping i and j only swaps the two final addends. Holdout
// scoring reads a few entries per row through it instead of building
// the n×n matrix.
func (fa *Factors) Rating(i, j int) float64 {
	return rating(fa.P.Row(i), fa.Q.Row(i), fa.P.Row(j), fa.Q.Row(j))
}

// rating is the symmetrized product of rows i and j, clipped to [-1, 1].
func rating(pi, qi, pj, qj []float64) float64 {
	var a, b float64
	for d := range pi {
		a += pi[d] * qj[d]
		b += pj[d] * qi[d]
	}
	return clip((a+b)/2, -1, 1)
}

// warmPadScale is the scale of the seeded noise used to fill factor
// dimensions that a warm start does not cover (vs. 0.1 for cold init):
// large enough to break the symmetry of a zero column, small enough not to
// perturb the converged subspace being carried over.
const warmPadScale = 0.02

// Complete solves the problem at the given options, with holdout (optional,
// may be nil) applied as per-row removals. The result is bit-identical to
// rebuilding the problem with the holdout entries unset from the mask.
func (p *Problem) Complete(opts Options, holdout *mat.Overlay) *mat.Matrix {
	out, _ := p.CompleteFactors(opts, holdout, nil)
	return out
}

// CompleteFactors is Complete plus warm-start control (see Factorize): it
// returns the rating matrix reconstructed from the factors, and the
// factors themselves.
func (p *Problem) CompleteFactors(opts Options, holdout *mat.Overlay, warm *Factors) (*mat.Matrix, *Factors) {
	fa := p.Factorize(opts, holdout, warm)
	return p.reconstruct(fa), fa
}

// Factorize runs the ALS sweeps of CompleteFactors and returns the
// factors alone, for callers that read only a few ratings (Factors.Rating)
// rather than the whole n×n matrix. When warm is non-nil and
// dimensionally compatible, the factor matrices are initialized from it
// — the first min(k, warm.Rank()) columns are copied, and any new columns
// are filled with small noise drawn from a rand.Rand seeded with opts.Seed
// (row-major, P then Q per row — the order is part of the determinism
// contract). A nil warm reproduces the historical cold initialization
// exactly. The returned Factors are freshly allocated each call.
func (p *Problem) Factorize(opts Options, holdout *mat.Overlay, warm *Factors) *Factors {
	n, f := p.n, p.f
	dim := n + f
	k := opts.Rank
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	iters := opts.Iterations
	if iters < 1 {
		iters = 1
	}
	fw := opts.FeatureWeight

	rng := rand.New(rand.NewSource(opts.Seed))
	P := mat.New(dim, k)
	Q := mat.New(dim, k)
	if warm != nil && warm.P != nil && warm.P.Rows == dim {
		kw := warm.P.Cols
		if kw > k {
			kw = k
		}
		for i := 0; i < dim; i++ {
			pi, qi := P.Row(i), Q.Row(i)
			copy(pi[:kw], warm.P.Row(i)[:kw])
			copy(qi[:kw], warm.Q.Row(i)[:kw])
			for d := kw; d < k; d++ {
				pi[d] = warmPadScale * rng.NormFloat64()
				qi[d] = warmPadScale * rng.NormFloat64()
			}
		}
	} else {
		for i := range P.Data {
			P.Data[i] = 0.1 * rng.NormFloat64()
			Q.Data[i] = 0.1 * rng.NormFloat64()
		}
	}

	for it := 0; it < iters; it++ {
		p.solveSide(holdout, Q, P, opts.Lambda, fw) // fix Q, solve P rows
		p.solveSide(holdout, P, Q, opts.Lambda, fw) // fix P, solve Q rows
	}

	return &Factors{P: P, Q: Q}
}

// solverScratch is the per-worker normal-equation workspace, pooled across
// solves: the rank-estimation loop calls Complete hundreds of times and the
// k×k system matrices are identically shaped within a sweep.
type solverScratch struct {
	buf  []float64 // backing for the k×k system matrix
	atb  []float64
	lfac []float64 // Cholesky factor scratch
	sol  []float64
	obs  []observation // filtered row for holdout-affected rows
	rhs  []float64     // feature rows' right-hand sides, f×k
}

var scratchPool = sync.Pool{New: func() any { return &solverScratch{} }}

func (s *solverScratch) sized(k int) (ata *mat.Matrix, atb []float64) {
	if cap(s.buf) < k*k {
		s.buf = make([]float64, k*k)
		s.lfac = make([]float64, k*k)
	}
	if cap(s.atb) < k {
		s.atb = make([]float64, k)
		s.sol = make([]float64, k)
	}
	s.lfac = s.lfac[:k*k]
	s.sol = s.sol[:k]
	return &mat.Matrix{Rows: k, Cols: k, Data: s.buf[:k*k]}, s.atb[:k]
}

// solveSide solves, for every row i, the regularized least squares
//
//	(Σ_j w_ij fixed_j fixed_jᵀ + λΣw I) free_i = Σ_j w_ij A_ij fixed_j
//
// writing the result into free. Rows are independent: the n AS rows are
// solved by a bounded worker pool, each worker owning its scratch buffers
// and writing only its own rows, while the calling goroutine solves the
// feature block (solveFeatureRows). Every row's result is bit-identical
// to the sequential per-row computation.
func (p *Problem) solveSide(holdout *mat.Overlay, fixed, free *mat.Matrix, lambda, fw float64) {
	n := p.n
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	k := fixed.Cols
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			sc := scratchPool.Get().(*solverScratch)
			ata, atb := sc.sized(k)
			for i := start; i < n; i += workers {
				obs := p.rows[i]
				if holdout != nil {
					if rm := holdout.Removed(i); len(rm) > 0 {
						sc.obs = filterObs(sc.obs[:0], obs, rm)
						obs = sc.obs
					}
				}
				p.solveRow(obs, fixed, free.Row(i), lambda, fw, ata, atb, sc)
			}
			scratchPool.Put(sc)
		}(w)
	}
	if p.f > 0 {
		p.solveFeatureRows(fixed, free, lambda, fw)
	}
	wg.Wait()
}

// filterObs appends to dst the observations of row whose column is not in
// the sorted removal list rm. Both inputs are sorted by column, so this is
// a single merge pass.
func filterObs(dst, row []observation, rm []int32) []observation {
	k := 0
	for _, o := range row {
		for k < len(rm) && rm[k] < o.col {
			k++
		}
		if k < len(rm) && rm[k] == o.col {
			continue
		}
		dst = append(dst, o)
	}
	return dst
}

// solveRow solves one AS row's normal equations into out, reusing the
// caller's scratch matrices. Link observations weigh 1; observations in
// the feature columns (>= n) weigh fw.
func (p *Problem) solveRow(obs []observation, fixed *mat.Matrix, out []float64, lambda, fw float64, ata *mat.Matrix, atb []float64, sc *solverScratch) {
	k := fixed.Cols
	if len(obs) == 0 {
		// No information: shrink toward zero.
		for d := range out {
			out[d] = 0
		}
		return
	}
	for x := range ata.Data {
		ata.Data[x] = 0
	}
	for d := range atb {
		atb[d] = 0
	}
	nCols := int32(p.n)
	// Accumulate through re-sliced rows of the backing arrays (the slice
	// lengths let the compiler drop the inner loops' bounds checks). Each
	// accumulator adds its terms in observation order, as before.
	g := ata.Data[:k*k]
	atb = atb[:k]
	var wsum float64
	for _, o := range obs {
		off := int(o.col) * k
		q := fixed.Data[off : off+k : off+k]
		w := 1.0
		if o.col >= nCols {
			w = fw
		}
		wsum += w
		for a, qa := range q {
			wqa := w * qa
			atb[a] += wqa * o.value
			accumulateUpper(g[a*k+a:a*k+k], q[a:], wqa)
		}
	}
	regularize(g, k, lambda*wsum+1e-9)
	if err := mat.CholeskySolveScratch(ata, atb, sc.lfac, sc.sol); err != nil {
		return // keep previous factors for this row
	}
	copy(out, sc.sol)
}

// accumulateUpper adds wqa·t to arow: one row of a normal matrix's upper
// triangle.
func accumulateUpper(arow, t []float64, wqa float64) {
	arow = arow[:len(t)]
	for b, v := range t {
		arow[b] += wqa * v
	}
}

// regularize mirrors the upper triangle of the k×k matrix g and adds
// diag to its diagonal.
func regularize(g []float64, k int, diag float64) {
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			g[b*k+a] = g[a*k+b]
		}
		g[a*k+a] += diag
	}
}

// solveFeatureRows solves the f feature rows of one half-sweep. Feature
// row c observes every AS column i in order, with value feat(i, c) and
// weight fw, and no holdout touches it, so all f rows share one normal
// matrix: it is built and factored once, and each row accumulates only
// its right-hand side and runs the two substitutions. Every accumulator
// adds the same terms in the same order as a per-row solve, so the result
// is bit-identical to f separate solveRow calls; a failed factorization
// keeps every feature row's previous factors, as f failed solves would.
func (p *Problem) solveFeatureRows(fixed, free *mat.Matrix, lambda, fw float64) {
	n, f, k := p.n, p.f, fixed.Cols
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)
	ata, _ := sc.sized(k)
	if cap(sc.rhs) < f*k {
		sc.rhs = make([]float64, f*k)
	}
	rhs := sc.rhs[:f*k]
	g := ata.Data
	clear(g)
	clear(rhs)
	var wsum float64
	for i := 0; i < n; i++ {
		q := fixed.Data[i*k : i*k+k : i*k+k]
		fv := p.feat.Data[i*f : i*f+f : i*f+f]
		wsum += fw
		for a, qa := range q {
			wqa := fw * qa
			accumulateUpper(g[a*k+a:a*k+k], q[a:], wqa)
			for c, v := range fv {
				rhs[c*k+a] += wqa * v
			}
		}
	}
	regularize(g, k, lambda*wsum+1e-9)
	if err := mat.CholeskyFactor(ata, sc.lfac); err != nil {
		return
	}
	for c := 0; c < f; c++ {
		mat.CholeskySolveFactored(sc.lfac, rhs[c*k:c*k+k], free.Row(n+c))
	}
}

// reconstruct forms the symmetrized rating product restricted to the AS
// block, clipped to [-1, 1]. The O(n²·k) loop is partitioned by row over a
// bounded worker pool with the same strided, write-disjoint layout as
// solveSide: worker w owns rows w, w+workers, ... and every (i, j) pair is
// computed by exactly one worker, so the output is bit-identical to the
// sequential loop.
func (p *Problem) reconstruct(fa *Factors) *mat.Matrix {
	n := p.n
	out := mat.New(n, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(start int) {
			defer wg.Done()
			for i := start; i < n; i += workers {
				pi, qi := fa.P.Row(i), fa.Q.Row(i)
				for j := i; j < n; j++ {
					v := rating(pi, qi, fa.P.Row(j), fa.Q.Row(j))
					out.Set(i, j, v)
					out.Set(j, i, v)
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}
