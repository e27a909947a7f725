package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// The traced driver must stay a faithful replica of Pipeline.Run: on a
// small world its result is byte-identical to the serial pipeline's.
func TestReplicaMatchesPipelineRun(t *testing.T) {
	s := campaignSmall
	s.cfg = campaignConfig(600)
	s.cfg.MeasureWorkers = 1
	p, _, _ := s.setup(7)
	metro := s.metros(p.World)[0]
	cfg := s.cfg
	cfg.Seed = s.metroSeed(7, metro)
	want, err := p.Snapshot().Run(context.Background(), metro, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, _, _ = s.setup(7)
	var cnt replicaCounts
	got := replicaRun(newTracer(), p.Snapshot(), metro, cfg, &cnt)
	if digest(got) != digest(want) {
		t.Fatalf("replica result differs from Pipeline.Run (rank %d vs %d, λ %v vs %v, %d vs %d measurements)",
			got.Rank, want.Rank, got.Threshold, want.Threshold, got.Measurements, want.Measurements)
	}
	if cnt.Reports != want.Measurements {
		t.Errorf("replica reported %d measurements to the selector, want %d", cnt.Reports, want.Measurements)
	}
}

// A digest must see a change in any rating bit.
func TestDigestCoversRatings(t *testing.T) {
	s := campaignSmall
	s.cfg = campaignConfig(300)
	p, _, _ := s.setup(3)
	metro := s.metros(p.World)[0]
	res, err := p.Snapshot().Run(context.Background(), metro, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := digest(res)
	res.Ratings.Data[1] = math.Nextafter(res.Ratings.Data[1], 2)
	if digest(res) == before {
		t.Fatal("digest unchanged after a rating changed")
	}
}

// BENCHMARK.json at the repository root declares the metrics this
// command reports; the two lists must agree name for name and unit for
// unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		got, known []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.known) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", c.name, len(c.got), len(c.known))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.known[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %+v", c.name, i, c.got[i], c.known[i])
			}
		}
	}
}
