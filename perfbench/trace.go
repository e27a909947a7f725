package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark side of the call.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	Parent int    `json:"parent"` // index into the recorder's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes allocated between start and end (children
	// included), or -1 when the span is too fine-grained to sample.
	Alloc int64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the benchmark writes them out. It is
// used from one goroutine: the traced drivers are serial. A nil tracer
// records nothing, so one driver serves the traced and untraced runs.
type tracer struct {
	epoch  time.Time
	run    int
	spans  []span
	stack  []int
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// begin opens a span under the innermost open span. Coarse spans sample
// the allocation counter; per-measurement spans (tens of thousands per
// campaign) only take timestamps, since a runtime/metrics read costs more
// than the call being timed.
func (t *tracer) begin(name string, coarse bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	s := span{Name: name, Run: t.run, Parent: parent, Alloc: -1}
	if coarse {
		s.Alloc = t.allocBytes()
	}
	s.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	if s.Alloc >= 0 {
		s.Alloc = t.allocBytes() - s.Alloc
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do times fn as one span.
func (t *tracer) do(name string, coarse bool, fn func()) {
	id := t.begin(name, coarse)
	fn()
	t.end(id)
}

// row is one line of the per-layer ledger: a span name's calls, self time
// (its duration minus the part its child spans cover) and self allocation.
type row struct {
	Name       string
	Calls      int
	Self       time.Duration
	SelfAlloc  int64
	AllocKnown bool
}

// ledger aggregates self time per span name over every recorded span. The
// root spans named in roots are not layers: a root's self time is the
// driver's own glue, reported as the unexplained residual. wall sums the
// durations of all root spans.
func (t *tracer) ledger(roots map[string]bool) (rows map[string]*row, wall, residual time.Duration) {
	childDur := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			if s.Alloc > 0 {
				childAlloc[s.Parent] += s.Alloc
			}
		}
	}
	rows = map[string]*row{}
	for i, s := range t.spans {
		self := time.Duration(s.End - s.Start - childDur[i])
		if s.Parent < 0 {
			wall += time.Duration(s.End - s.Start)
		}
		if roots[s.Name] {
			residual += self
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &row{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.Self += self
		if s.Alloc >= 0 {
			r.AllocKnown = true
			r.SelfAlloc += s.Alloc - childAlloc[i]
		}
	}
	return rows, wall, residual
}

// selfOf sums the self time of every row whose name has one of prefixes.
func selfOf(rows map[string]*row, prefixes ...string) time.Duration {
	var d time.Duration
	for name, r := range rows {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				d += r.Self
				break
			}
		}
	}
	return d
}

func allocOf(rows map[string]*row, prefix string) int64 {
	var b int64
	for name, r := range rows {
		if strings.HasPrefix(name, prefix) {
			b += r.SelfAlloc
		}
	}
	return b
}

func callsOf(rows map[string]*row, names ...string) int {
	n := 0
	for _, name := range names {
		if r := rows[name]; r != nil {
			n += r.Calls
		}
	}
	return n
}

// printLedger writes the per-layer table: self time per layer, the rows
// summed, the traced wall, the unexplained residual, and the tracing
// overhead against an untraced run of the same work.
func printLedger(w io.Writer, rows map[string]*row, wall, residual, untraced time.Duration) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return rows[names[a]].Self > rows[names[b]].Self })
	var sum time.Duration
	fmt.Fprintf(w, "ledger %-24s %9s %11s %7s %10s\n", "layer", "calls", "self_s", "share", "alloc_mb")
	for _, n := range names {
		r := rows[n]
		sum += r.Self
		alloc := "-"
		if r.AllocKnown {
			alloc = fmt.Sprintf("%.2f", float64(r.SelfAlloc)/(1<<20))
		}
		fmt.Fprintf(w, "ledger %-24s %9d %11.6f %6.2f%% %10s\n", n, r.Calls, r.Self.Seconds(), 100*share(r.Self, wall), alloc)
	}
	fmt.Fprintf(w, "ledger %-24s %9s %11.6f %6.2f%%\n", "layers summed", "", sum.Seconds(), 100*share(sum, wall))
	fmt.Fprintf(w, "ledger %-24s %9s %11.6f\n", "traced wall", "", wall.Seconds())
	fmt.Fprintf(w, "ledger %-24s %9s %11.6f %6.2f%%\n", "unexplained residual", "", residual.Seconds(), 100*share(residual, wall))
	fmt.Fprintf(w, "ledger %-24s %9s %11.6f\n", "untraced wall", "", untraced.Seconds())
	fmt.Fprintf(w, "ledger %-24s %9s %11.6f %6.2f%%\n", "tracing overhead", "", (wall - untraced).Seconds(), 100*share(wall-untraced, untraced))
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
