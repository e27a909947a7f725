package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"metascritic"
	"metascritic/internal/api"
	"metascritic/internal/api/snapshot"
	"metascritic/internal/cliflags"
	"metascritic/internal/engine"
	"metascritic/internal/netsim"
)

// serve-churn traffic: open-loop reads at a fixed rate well under
// saturation (reads alone keep p99 under 5 ms on two cores), 90% pair
// estimates and 10% top-K peer lists, with a link-churn ingest every
// second so that writes land beside reads. Two connections: the load
// uses at most as many threads and connections as the host has cores.
//
// The gated latencies are the median ingest and the read stall: the
// slowest read due in each ingest period, median over the periods, which
// an ingest's hold on the world lock sets. Both are CPU-bound medians over
// many ingests, so one ingest the host slows moves them by one rank. The
// reads' p50 (about a millisecond, most of it wake-ups of the generator,
// the loopback and the daemon) and their pooled p99 and p99.9 are printed
// but not gated: they follow the host's scheduling latency and its slow
// moments, which shift them by a quarter or more between runs of the same
// code.
const (
	readRate     = 320 // reads per second
	peersShare   = 0.1
	peersK       = 10
	ingestFirst  = 1 * time.Second
	ingestPeriod = 1 * time.Second
	loadConns    = 2
	sloLatency   = 50 * time.Millisecond
	serveScale   = 0.15
	serveWorld   = 1 // seed of the served world and its campaign
	servePublic  = 10
	serveBudget  = 2000
	serveSetups  = 3
	daemonBootTO = 60 * time.Second
)

// ingestBody is the churn batch each ingest posts: link failures, new
// peerings and depeerings, but no AS arrivals (an arrival drops the whole
// route cache, which would hide scoped invalidation).
type ingestBody struct {
	Seed       int64 `json:"seed"`
	LinkDowns  int   `json:"link_downs"`
	LinkUps    int   `json:"link_ups"`
	Depeerings int   `json:"depeerings"`
}

func churn(seed int64, k int) ingestBody {
	return ingestBody{Seed: seed*100 + int64(k) + 1, LinkDowns: 6, LinkUps: 6, Depeerings: 2}
}

type serveOptions struct {
	seed     int64
	dur      time.Duration
	daemon   string // metascriticd binary
	workDir  string // where the snapshot is written
	traced   bool
	spanPath string
}

// readReq is one scheduled request: a read, or an ingest when ingest is
// non-nil.
type readReq struct {
	path   string
	peers  bool
	a, b   int // ASNs an estimate must echo
	ingest *ingestBody
}

func runServeChurn(ctx context.Context, opt serveOptions, o *outcome) {
	// Set-up: generate and seed the world, capture the six study metros'
	// campaign into a snapshot, boot the daemon from it. Generation and
	// capture run serveSetups times on fresh pipelines; every capture
	// must reproduce the first one's results. The served world is fixed,
	// as a deployment's would be; the seed draws the traffic and the churn.
	worldCfg := netsim.Config{Seed: serveWorld, Metros: netsim.DefaultMetros(serveScale)}
	var gens, camps []float64
	var p *metascritic.Pipeline
	var results map[int]*metascritic.Result
	var first [32]byte
	for k := 0; k < serveSetups; k++ {
		t0 := time.Now()
		w := netsim.Generate(worldCfg)
		p = metascritic.NewPipeline(w)
		p.SeedPublicMeasurements(servePublic, rand.New(rand.NewSource(serveWorld)))
		gens = append(gens, time.Since(t0).Seconds())
		cfg := campaignConfig(serveBudget)
		cfg.Seed = serveWorld
		t1 := time.Now()
		mr, err := engine.New(p).RunAll(ctx, engine.Config{Base: cfg, Workers: 2})
		camps = append(camps, time.Since(t1).Seconds())
		if err != nil {
			o.attempted++
			o.fail("capture campaign: %v", err)
			return
		}
		results = mr.Results
		if d := digestAll(results); k == 0 {
			first = d
		} else if d != first {
			o.attempted++
			o.fail("capture campaign %d: digest %x differs from the first capture's %x", k, d[:8], first[:8])
		}
	}
	traceroutes, q := o.checkCampaign(p.World, results, serveBudget)
	o.notef("capture digest %x", first[:8])

	snap := filepath.Join(opt.workDir, fmt.Sprintf("serve-%d-%d.snap", opt.seed, os.Getpid()))
	defer os.Remove(snap)
	if err := snapshot.Save(snap, snapshot.Capture(worldCfg, p, results)); err != nil {
		o.attempted++
		o.fail("save snapshot: %v", err)
		return
	}

	var boots []float64
	var d *daemon
	for k := 0; k < serveSetups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				o.attempted++
				o.fail("daemon shutdown: %v", err)
			}
		}
		var err error
		var boot time.Duration
		d, boot, err = startDaemon(opt.daemon, snap)
		if err != nil {
			o.attempted++
			o.fail("boot daemon: %v", err)
			return
		}
		boots = append(boots, boot.Seconds())
	}
	setups := make([]float64, serveSetups)
	for k := range setups {
		setups[k] = gens[k] + boots[k]
	}

	reqs, due := schedule(p.World, results, opt.seed, opt.dur)
	lr, ingestSeq := d.load(ctx, reqs, due)
	stats, statsErr := d.stats()
	if err := d.stop(); err != nil {
		o.attempted++
		o.fail("daemon shutdown: %v", err)
	}

	// Ingest intervals first: a read is blocked when it was outstanding
	// (from its due time to its reply) while an ingest was in flight.
	var ingests []float64
	var seqs []int64
	var busy [][2]time.Duration
	for i, r := range lr {
		if reqs[i].ingest != nil && r.Err == nil {
			ingests = append(ingests, (r.Done - r.Sent).Seconds())
			seqs = append(seqs, ingestSeq[i])
			busy = append(busy, [2]time.Duration{r.Sent, r.Done})
		}
	}
	var reads, clear, estimates, peers, late []float64
	okFast, blocked := 0, 0
	for i, r := range lr {
		o.attempted++
		late = append(late, ms(r.Late))
		if r.Err != nil {
			o.fail("%s: %v", reqs[i].path, r.Err)
		}
		if reqs[i].ingest != nil {
			continue
		}
		lat := ms(r.Latency())
		reads = append(reads, lat)
		if reqs[i].peers {
			peers = append(peers, lat)
		} else {
			estimates = append(estimates, lat)
		}
		if r.Err == nil && r.Latency() <= sloLatency {
			okFast++
		}
		overlaps := false
		for _, b := range busy {
			if b[0] < r.Done && r.Due < b[1] {
				overlaps = true
			}
		}
		if overlaps {
			blocked++
		} else {
			clear = append(clear, lat)
		}
	}
	nIngest := len(seqs)
	if nIngest == 0 {
		o.attempted++
		o.fail("no ingest completed: a run must last longer than %v", ingestFirst)
	}
	for k := 1; k < len(seqs); k++ {
		if seqs[k] <= seqs[k-1] {
			o.attempted++
			o.fail("ingest %d: snapshot_seq %d did not rise above %d", k, seqs[k], seqs[k-1])
		}
	}
	o.attempted++
	if statsErr != nil {
		o.fail("admin stats: %v", statsErr)
	} else if stats.SnapshotSeq != int64(1+nIngest) || stats.Epoch != uint32(nIngest) {
		o.fail("after %d ingests the daemon serves seq %d at epoch %d", nIngest, stats.SnapshotSeq, stats.Epoch)
	}

	rd := summarize(reads)
	sortedReads := sortedCopy(reads)
	p99 := quantile(sortedReads, 0.99)
	rss := float64(stats.Process.PeakRSSBytes) / (1 << 20)
	ing := summarize(ingests)
	cd := summarize(camps)
	o.report("setup_s", median(setups), "s", fmt.Sprintf("median of %d (generation+seeding %.4g s, daemon boot %.4g s)", serveSetups, median(gens), median(boots)))
	o.report("campaign_s", cd.P50, "s", "capture campaign, "+cd.String())
	o.report("peak_rss_mb", rss, "MB", "VmHWM of the daemon")
	o.report("traceroutes", float64(traceroutes), "count", "targeted traceroutes of the served campaign")
	o.report("auprc", q.AUPRC, "ratio", "served ratings, mean over metros")
	o.report("precision_at_thr", q.Precision, "ratio", "served ratings at each metro's λ")
	o.report("recall_at_thr", q.Recall, "ratio", "served ratings at each metro's λ")
	o.reportErrorFrac()
	o.report("read_p50_ms", rd.P50, "ms", rd.String()+", from due send time")
	o.report("read_p99_ms", p99, "ms", fmt.Sprintf("%d reads at %d/s over %d connections", len(reads), readRate, loadConns))
	stall, windows := readStall(lr, reqs, opt.dur)
	o.report("read_stall_ms", stall, "ms", fmt.Sprintf("slowest read due in each %v after an ingest's due time, median over %d", ingestPeriod, windows))
	o.report("read_slo_frac", ratio(float64(okFast), float64(len(reads))), "ratio", fmt.Sprintf("reads sent that succeeded within %v", sloLatency))
	o.report("ingest_s", ing.P50, "s", "POST until the new epoch is served, "+ing.String())
	o.notef("reads clear of any ingest: p99 %.4g ms over %d; generator lateness p99 %.4g ms",
		quantile(sortedCopy(clear), 0.99), len(clear), quantile(sortedCopy(late), 0.99))

	if !opt.traced {
		o.metric("setup_s", median(setups), "s")
		o.metric("latency_p50_ms", 1000*ing.P50, "ms")
		o.metric("latency_tail_ms", stall, "ms")
		o.metric("peak_rss_mb", rss, "MB")
		o.metric("traceroutes", float64(traceroutes), "count")
		o.metric("auprc", q.AUPRC, "ratio")
		o.metric("precision_at_thr", q.Precision, "ratio")
		o.metric("recall_at_thr", q.Recall, "ratio")
		return
	}

	o.metric("api.estimate_p99_ms", quantile(sortedCopy(estimates), 0.99), "ms")
	o.metric("api.peers_p99_ms", quantile(sortedCopy(peers), 0.99), "ms")
	o.metric("api.read_blocked_frac", ratio(float64(blocked), float64(len(reads))), "ratio")
	o.metric("loadgen.late_p99_ms", quantile(sortedCopy(late), 0.99), "ms")
	rc := stats.RouteCache
	o.metric("bgp.propagations", ratio(float64(rc.Computed), float64(nIngest)), "count")
	o.metric("bgp.hit_ratio", ratio(float64(rc.Hits), float64(rc.Hits+rc.Computed)), "ratio")
	o.metric("bgp.invalidated", ratio(float64(rc.Invalidated), float64(nIngest)), "count")
	o.metric("netsim.generate_s", median(gens), "s")
	replayTraced(ctx, snap, churn(opt.seed, 0), o, opt.spanPath)
}

// readStall cuts the run into windows of one ingest period, each starting
// at an ingest's due time, and returns the median over windows of the
// slowest read due in the window (timed from its due time, in ms), with
// the number of windows. One ingest the host slows moves it by one rank.
func readStall(lr []loadResult, reqs []readReq, dur time.Duration) (float64, int) {
	windowMax := make([]float64, (dur-ingestFirst+ingestPeriod-1)/ingestPeriod)
	for i, r := range lr {
		if reqs[i].ingest != nil || r.Due < ingestFirst {
			continue
		}
		k := (r.Due - ingestFirst) / ingestPeriod
		windowMax[k] = math.Max(windowMax[k], ms(r.Latency()))
	}
	return median(windowMax), len(windowMax)
}

// schedule builds the run's requests from the served results, all drawn
// from the seed: reads at readRate, an ingest every ingestPeriod.
func schedule(w *netsim.World, results map[int]*metascritic.Result, seed int64, dur time.Duration) ([]readReq, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	metros := make([]int, 0, len(results))
	for m := range results {
		metros = append(metros, m)
	}
	sort.Ints(metros)
	var reqs []readReq
	var due []time.Duration
	nextIngest := ingestFirst
	k := 0
	period := time.Second / readRate
	for t := time.Duration(0); t < dur; t += period {
		if t >= nextIngest {
			body := churn(seed, k)
			reqs = append(reqs, readReq{path: "/v1/ingest", ingest: &body})
			due = append(due, nextIngest)
			nextIngest += ingestPeriod
			k++
		}
		r := results[metros[rng.Intn(len(metros))]]
		name := url.PathEscape(w.G.Metros[r.Metro].Name)
		i := rng.Intn(len(r.Members))
		a := w.G.ASes[r.Members[i]].ASN
		if rng.Float64() < peersShare {
			reqs = append(reqs, readReq{path: fmt.Sprintf("/v1/peers/%s/%d?k=%d", name, a, peersK), peers: true, a: a})
		} else {
			j := rng.Intn(len(r.Members) - 1)
			if j >= i {
				j++
			}
			b := w.G.ASes[r.Members[j]].ASN
			reqs = append(reqs, readReq{path: fmt.Sprintf("/v1/estimate/%s/%d/%d", name, a, b), a: a, b: b})
		}
		due = append(due, t)
	}
	return reqs, due
}

// daemon is a metascriticd process serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	logEOF chan struct{}
	tail   *bytes.Buffer // last log lines, for error reports
}

// startDaemon boots metascriticd from a snapshot and returns once it
// answers /healthz, with the boot time from process start.
func startDaemon(bin, snap string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-load", snap, "-addr", "127.0.0.1:0", "-drain", "5")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:    cmd,
		logEOF: make(chan struct{}),
		tail:   &bytes.Buffer{},
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     loadConns,
				MaxIdleConnsPerHost: loadConns,
			},
		},
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logEOF)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			d.tail.WriteString(line + "\n")
			if d.tail.Len() > 4096 {
				d.tail.Next(d.tail.Len() - 4096)
			}
		}
	}()
	timeout := time.After(daemonBootTO)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logEOF:
		err := d.stop()
		return nil, 0, fmt.Errorf("daemon exited before serving: %v", err)
	case <-timeout:
		_ = d.stop() // the timeout is the error to report
		return nil, 0, fmt.Errorf("daemon did not start serving within %v", daemonBootTO)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-timeout:
			_ = d.stop() // the timeout is the error to report
			return nil, 0, fmt.Errorf("daemon /healthz not ready within %v", daemonBootTO)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop shuts the daemon down gracefully (SIGTERM, drained) and waits for
// it to exit, killing it if it does not within the drain allowance.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case <-d.logEOF:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports why it ended
		<-d.logEOF
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("%v; log tail:\n%s", err, d.tail.String())
	}
	return nil
}

// load runs the open-loop schedule against the daemon. It returns each
// request's result and, for ingests, the snapshot_seq they answered with.
func (d *daemon) load(ctx context.Context, reqs []readReq, due []time.Duration) ([]loadResult, []int64) {
	seqs := make([]int64, len(reqs))
	g := loadgen{conns: loadConns, send: func(ctx context.Context, i int) error {
		seq, err := d.do(ctx, reqs[i])
		seqs[i] = seq
		return err
	}}
	return g.run(ctx, due), seqs
}

// do sends one request and checks the reply: every read returns 200 and
// decodes with ratings in [-1, 1]; every ingest returns 200 with the
// snapshot sequence that now serves it.
func (d *daemon) do(ctx context.Context, q readReq) (int64, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if q.ingest != nil {
		b, err := json.Marshal(q.ingest)
		if err != nil {
			return 0, err
		}
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+q.path, body)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	inRange := func(v float64) bool { return v >= -1 && v <= 1 && !math.IsNaN(v) }
	switch {
	case q.ingest != nil:
		var r struct {
			SnapshotSeq int64 `json:"snapshot_seq"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return 0, err
		}
		return r.SnapshotSeq, nil
	case q.peers:
		var r struct {
			ASN   int `json:"asn"`
			Peers []struct {
				Score float64 `json:"score"`
			} `json:"peers"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return 0, err
		}
		if r.ASN != q.a || len(r.Peers) == 0 || len(r.Peers) > peersK {
			return 0, fmt.Errorf("peers of AS%d: got AS%d with %d peers", q.a, r.ASN, len(r.Peers))
		}
		for _, pe := range r.Peers {
			if !inRange(pe.Score) {
				return 0, fmt.Errorf("peer score %v outside [-1, 1]", pe.Score)
			}
		}
	default:
		var r struct {
			A, B   int
			Rating float64 `json:"rating"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return 0, err
		}
		if r.A != q.a || r.B != q.b {
			return 0, fmt.Errorf("estimate for AS%d-AS%d answered AS%d-AS%d", q.a, q.b, r.A, r.B)
		}
		if !inRange(r.Rating) {
			return 0, fmt.Errorf("rating %v outside [-1, 1]", r.Rating)
		}
	}
	return 0, nil
}

// daemonStats is the part of GET /admin/stats the benchmark reads.
type daemonStats struct {
	SnapshotSeq int64  `json:"snapshot_seq"`
	Epoch       uint32 `json:"epoch"`
	RouteCache  struct {
		Hits, Computed, Invalidated int64
	} `json:"route_cache"`
	Process struct {
		PeakRSSBytes int64 `json:"peak_rss_bytes"`
	} `json:"process"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get(d.base + "/admin/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// replayTraced replays the run's first ingest in-process, twice over
// fresh restores of the snapshot: untraced, then with a span around every
// step the daemon's ingest handler takes (Evolve, public re-seeding, each
// Rescore, the new serving State). Both replays must agree.
func replayTraced(ctx context.Context, snap string, body ingestBody, o *outcome, spanPath string) {
	var a0, g0, a1, g1 uint64
	untraced, _, ref, err := replayIngest(ctx, nil, snap, body, func() { a0, g0 = goCounters() }, func() { a1, g1 = goCounters() })
	o.attempted++
	if err != nil {
		o.fail("untraced ingest replay: %v", err)
		return
	}
	t := newTracer()
	_, load, got, err := replayIngest(ctx, t, snap, body, nil, nil)
	o.attempted++
	if err != nil {
		o.fail("traced ingest replay: %v", err)
		return
	}
	if got != ref {
		o.fail("traced ingest replay digest %x differs from the untraced %x", got[:8], ref[:8])
	}
	rows, wall, residual := t.ledger(map[string]bool{"ingest": true})
	o.metric("snapshot.load_s", load.Seconds(), "s")
	o.metric("netsim.evolve_s", selfOf(rows, "netsim.evolve").Seconds(), "s")
	o.metric("stream.seed_traces_s", selfOf(rows, "stream.seed_traces").Seconds(), "s")
	o.metric("stream.rescore_s", selfOf(rows, "stream.rescore").Seconds(), "s")
	o.metric("api.state_build_s", selfOf(rows, "api.state_build").Seconds(), "s")
	o.metric("go.alloc_mb", float64(a1-a0)/(1<<20), "MB")
	o.metric("go.gc_cycles", float64(g1-g0), "count")
	o.ledgerMetrics(rows, wall, residual, untraced, 1)
	o.ledger = func() { printLedger(o.out, rows, wall, residual, untraced) }
	o.writeSpans(t, spanPath)
}

// replayIngest restores the snapshot and absorbs one churn batch the way
// the daemon's POST /v1/ingest does. It returns the ingest's wall time,
// the restore time, and the digest of the re-scored results; before and
// after, when set, bracket the ingest.
func replayIngest(ctx context.Context, t *tracer, snap string, body ingestBody, before, after func()) (time.Duration, time.Duration, [32]byte, error) {
	var none [32]byte
	t0 := time.Now()
	art, err := snapshot.Load(snap)
	if err != nil {
		return 0, 0, none, err
	}
	p, results, err := snapshot.Restore(art)
	if err != nil {
		return 0, 0, none, err
	}
	load := time.Since(t0)
	// The daemon's base config: defaults with the engine flags applied.
	base := metascritic.DefaultConfig()
	cliflags.DefaultEngine().Apply(&base, cliflags.DefaultPipeline().Seed)
	cur := api.NewState(1, art.World, p, results)

	if before != nil {
		before()
	}
	start := time.Now()
	root := t.begin("ingest", true)
	defer t.end(root)
	rng := rand.New(rand.NewSource(body.Seed))
	t.do("netsim.evolve", true, func() {
		_, _, err = p.Evolve(rng, netsim.EvolveSpec{LinkDowns: body.LinkDowns, Depeerings: body.Depeerings, LinkUps: body.LinkUps})
	})
	if err != nil {
		return 0, 0, none, err
	}
	t.do("stream.seed_traces", true, func() { p.SeedPublicMeasurements(4, rng) })
	merged := make(map[int]*metascritic.Result, len(cur.Results))
	for m, r := range cur.Results {
		merged[m] = r
	}
	for _, m := range cur.ServedMetros() {
		var res *metascritic.Result
		t.do("stream.rescore", true, func() { res, err = p.Rescore(ctx, cur.Results[m], base) })
		if err != nil {
			return 0, 0, none, err
		}
		merged[m] = res
	}
	t.do("api.state_build", true, func() { api.NewState(cur.Seq+1, cur.WorldCfg, p, merged) })
	wall := time.Since(start)
	if after != nil {
		after()
	}
	return wall, load, digestAll(merged), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
