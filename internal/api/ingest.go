package api

// POST /v1/ingest is the daemon's streaming face: one request draws a
// deterministic evolution batch from the served world (link churn,
// depeerings, new peerings, AS arrivals, IXP joins), mirrors it onto
// every layer of the pipeline (BGP topology, scoped route-cache
// invalidation, address plan, hitlist, evidence epoch), refreshes the
// public view with a round of post-churn traceroutes, and re-scores
// every served metro incrementally — warm ALS factors, no rank sweep,
// no tune grid; metros in parallel, each on its own store snapshot —
// before swapping in a new serving State at the next epoch. Readers keep
// the old snapshot until their request returns.
//
// Ingest mutates the world in place, which asynchronous runs read
// without holding the world lock for their whole lifetime; the endpoint
// therefore refuses with 409 Conflict while any run is active, and new
// submissions queue behind the write lock for the (short) duration of
// the mutation.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"metascritic"
	"metascritic/internal/netsim"
)

// ingestRequest is the POST /v1/ingest body. The event counts are
// targets, clamped to the world's candidate pools (netsim.EvolveSpec);
// at least one must be positive.
type ingestRequest struct {
	// Seed drives the evolution draw and the post-churn trace sample.
	// Equal worlds + equal ingest sequences give byte-identical states.
	Seed       int64 `json:"seed"`
	LinkDowns  int   `json:"link_downs"`
	Depeerings int   `json:"depeerings"`
	LinkUps    int   `json:"link_ups"`
	NewASes    int   `json:"new_ases"`
	IXPJoins   int   `json:"ixp_joins"`
	// TracesPerProbe sizes the post-churn public-view refresh (default 4;
	// 0 is valid and skips the refresh).
	TracesPerProbe *int `json:"traces_per_probe"`
}

// ingestResponse reports what absorbing the batch did.
type ingestResponse struct {
	// Epoch is the world epoch after the batch; SnapshotSeq the serving
	// snapshot that now reflects it.
	Epoch       uint32 `json:"epoch"`
	SnapshotSeq int64  `json:"snapshot_seq"`
	Events      int    `json:"events"`
	NewASes     int    `json:"new_ases"`
	// Invalidated/Retained are this batch's route-cache eviction split
	// (Retained is 0 when an AS arrival forced a full invalidation).
	Invalidated  int `json:"invalidated"`
	Retained     int `json:"retained"`
	NewAddresses int `json:"new_addresses"`
	// Traces is the number of post-churn public traceroutes absorbed.
	Traces int `json:"traces"`
	// Rescored lists the metros re-scored incrementally, by name.
	Rescored []string `json:"rescored"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	for _, c := range []int{req.LinkDowns, req.Depeerings, req.LinkUps, req.NewASes, req.IXPJoins} {
		if c < 0 {
			writeError(w, http.StatusBadRequest, "event counts must be non-negative")
			return
		}
	}
	if req.LinkDowns+req.Depeerings+req.LinkUps+req.NewASes+req.IXPJoins == 0 {
		writeError(w, http.StatusBadRequest, "empty evolution spec: at least one event count must be positive")
		return
	}
	traces := 4
	if req.TracesPerProbe != nil {
		if *req.TracesPerProbe < 0 {
			writeError(w, http.StatusBadRequest, "traces_per_probe must be non-negative")
			return
		}
		traces = *req.TracesPerProbe
	}

	s.worldMu.Lock()
	defer s.worldMu.Unlock()
	if n := s.runs.Active(); n > 0 {
		writeError(w, http.StatusConflict,
			"%d run(s) active: ingest mutates the world in place; retry once they finish", n)
		return
	}

	p := s.eng.Pipeline()
	rng := rand.New(rand.NewSource(req.Seed))
	_, est, err := p.Evolve(rng, netsim.EvolveSpec{
		LinkDowns:  req.LinkDowns,
		Depeerings: req.Depeerings,
		LinkUps:    req.LinkUps,
		NewASes:    req.NewASes,
		IXPJoins:   req.IXPJoins,
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	nTraces := 0
	if traces > 0 {
		nTraces = p.SeedPublicMeasurements(traces, rng)
	}

	// Re-score the served metros from the accumulated evidence. No run is
	// active and submissions are blocked on the world lock, so the current
	// state cannot change underneath the merge. The rescore runs on a
	// background context: a client hanging up must not abort a mutation
	// that is already half mirrored.
	cur := s.State()
	merged := make(map[int]*metascritic.Result, len(cur.Results))
	for m, res := range cur.Results {
		merged[m] = res
	}
	g := p.World.G
	served := cur.ServedMetros()
	fresh, errs := rescoreAll(p, cur.Results, served, s.opts.Base)
	// Merge in served order, as a serial loop would have: the metros from
	// the first failure onward keep their previous results.
	rescored := []string{}
	var rescoreErr error
	for i, m := range served {
		if errs[i] != nil {
			rescoreErr = errs[i]
			break
		}
		merged[m] = fresh[i]
		rescored = append(rescored, g.Metros[m].Name)
	}

	// Commit even when a rescore failed: the world has already evolved,
	// and a state at the new epoch (with the old results where the
	// rescore did not land) is strictly better than one frozen behind it.
	s.commitMu.Lock()
	next := NewState(cur.Seq+1, cur.WorldCfg, p, merged)
	s.state.Store(next)
	s.commitMu.Unlock()

	s.ingestBatches.Add(1)
	s.ingestEvents.Add(int64(est.Events))
	s.ingestNewASes.Add(int64(est.NewASes))
	s.ingestTraces.Add(int64(nTraces))
	s.ingestRescores.Add(int64(len(rescored)))
	last := est
	s.lastIngest.Store(&last)

	if rescoreErr != nil {
		writeError(w, http.StatusInternalServerError,
			"batch absorbed (epoch %d) but rescore failed after %d metro(s): %v", est.Epoch, len(rescored), rescoreErr)
		return
	}
	writeJSON(w, http.StatusOK, ingestResponse{
		Epoch:        est.Epoch,
		SnapshotSeq:  next.Seq,
		Events:       est.Events,
		NewASes:      est.NewASes,
		Invalidated:  est.Invalidated,
		Retained:     est.Retained,
		NewAddresses: est.NewAddresses,
		Traces:       nTraces,
		Rescored:     rescored,
	})
}

// rescoreAll re-scores the given metros concurrently on at most
// GOMAXPROCS workers, each metro on its own p.Snapshot() — the engine's
// isolation pattern: Rescore reads the world and writes only its store's
// caches, so snapshots keep metros from sharing mutable state. The
// snapshots add no copy-on-write copies (NewState clones the store on
// every ingest anyway), and each metro's result equals the serial
// p.Rescore's, since an estimate is a pure function of the store. Results
// and errors are indexed like metros.
func rescoreAll(p *metascritic.Pipeline, prev map[int]*metascritic.Result, metros []int, cfg metascritic.Config) ([]*metascritic.Result, []error) {
	out := make([]*metascritic.Result, len(metros))
	errs := make([]error, len(metros))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(metros) {
		workers = len(metros)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(metros) {
					return
				}
				out[i], errs[i] = p.Snapshot().Rescore(context.Background(), prev[metros[i]], cfg)
			}
		}()
	}
	wg.Wait()
	return out, errs
}
