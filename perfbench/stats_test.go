package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"prophet/internal/probe/attrib"
)

func TestQuantileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: quantile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true}, // ranks 91..100 lie beyond: exactly minTail
		{99, 0.9, 90, false}, // ceil(89.1) = 90, only 9 beyond
		{110, 0.9, 99, true}, // ceil(99) = 99, 11 beyond
		{20, 0.5, 10, true},  // the median needs 2×minTail samples
		{19, 0.5, 10, false}, // ceil(9.5) = 10, 9 beyond
		{1, 0.5, 1, false},   // one sample is its own median
		{5, 0.01, 1, false},  // rank clamps to 1
		{300, 0.99, 297, false},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := quantile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("quantile(empty) = %v, %v; want NaN, false", v, ok)
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("quantile reordered its input")
	}
}

func TestSetupSecondsSubtractsOnlyTimedIterations(t *testing.T) {
	ms := time.Millisecond
	iters := []time.Duration{40 * ms, 30 * ms, 10 * ms, 12 * ms, 8 * ms}
	// Warm-up iterations (the first two) stay in set-up with the rest of
	// the run's overhead; only the timed three are subtracted.
	got := setupSeconds(200*ms, iters, 2)
	if want := 0.170; math.Abs(got-want) > 1e-12 {
		t.Errorf("setupSeconds = %v, want %v", got, want)
	}
	if got := setupSeconds(30*ms, iters, 0); math.Abs(got-(-0.070)) > 1e-12 {
		t.Errorf("setupSeconds over-subtracting = %v, want -0.07", got)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var tl tally
	tl.add(40, true)
	tl.add(40, false) // an episode that errored or hung
	tl.add(20, true)
	if tl.attempted != 100 || tl.failed != 40 || tl.errorRate() != 0.4 {
		t.Errorf("tally = %+v rate %v; want 100 attempted, 40 failed, 0.4", tl, tl.errorRate())
	}
	// A failed correctness gate invalidates the whole run.
	tl.failAll()
	if tl.failed != 100 || tl.errorRate() != 1 {
		t.Errorf("after failAll: %+v rate %v; want every iteration failed", tl, tl.errorRate())
	}
	if (tally{}).errorRate() != 1 {
		t.Error("a run that attempted nothing must not read as error-free")
	}

	var r report
	r.t.add(10, true)
	r.fail("losses differ")
	if r.t.failed != 10 || len(r.failures) != 1 {
		t.Errorf("report.fail: %+v", r)
	}
}

func TestLayerWaitsMapsComponentsToLayers(t *testing.T) {
	rep := &attrib.Report{PerGrad: []attrib.Components{
		// Warm-up iteration: excluded.
		{Iter: 0, Generation: 9, PriorityWait: 9, BandwidthWait: 9, Transmit: 9, Ack: 9},
		{Worker: 0, Iter: 2, Generation: 0.001, PriorityWait: 0.002, BandwidthWait: 0.003, Transmit: 0.004, Ack: 0.005},
		{Worker: 1, Iter: 3, Generation: 0.003, PriorityWait: 0.004, BandwidthWait: 0.005, Transmit: 0.006, Ack: 0.007},
	}}
	got := layerWaits(rep, 2)
	want := map[string]float64{
		"nn.generation_ms":   2,
		"drive.prio_wait_ms": 3,
		"drive.bw_wait_ms":   4,
		"wire.transmit_ms":   5,
		"ps.ack_ms":          6,
	}
	if len(got) != len(want) {
		t.Fatalf("layerWaits keys = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v ms, want %v", k, got[k], v)
		}
	}
	for k, v := range layerWaits(&attrib.Report{}, 0) {
		if v != 0 {
			t.Errorf("empty report: %s = %v, want 0", k, v)
		}
	}
}

func TestMaxRelDiff(t *testing.T) {
	if d := maxRelDiff([]float64{1, 2}, []float64{1, 2}); d != 0 {
		t.Errorf("identical curves differ by %v", d)
	}
	if d := maxRelDiff([]float64{1, 2.2}, []float64{1, 2}); math.Abs(d-0.1) > 1e-12 {
		t.Errorf("maxRelDiff = %v, want 0.1", d)
	}
	if d := maxRelDiff([]float64{1}, []float64{1, 2}); !math.IsInf(d, 1) {
		t.Errorf("length mismatch = %v, want +Inf", d)
	}
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		code []spec
		file []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, file.EndToEnd}, {"per_layer", perLayer, file.PerLayer}} {
		var fromFile []spec
		for _, m := range c.file {
			fromFile = append(fromFile, spec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(c.code, fromFile) {
			t.Errorf("%s in code %v\nBENCHMARK.json %v", c.what, c.code, fromFile)
		}
	}
}

func TestCompleteOrdersAndFillsAbsentLayers(t *testing.T) {
	specs := []spec{{"a", "ms"}, {"b", "count"}, {"c", "us"}}
	var r report
	r.add("c", 3, 7, "")
	r.add("a", 1, 5, "")
	r.complete(specs)
	if len(r.metrics) != 3 || r.metrics[0].name != "a" || r.metrics[1].name != "b" || r.metrics[2].name != "c" {
		t.Fatalf("complete order: %+v", r.metrics)
	}
	if m := r.metrics[1]; m.value != 0 || m.n != 0 {
		t.Errorf("absent layer reported %+v, want 0 from no samples", m)
	}
	if len(r.failures) != 0 {
		t.Errorf("unexpected failures %v", r.failures)
	}
	r.add("stray", 1, 1, "")
	r.complete(specs)
	if len(r.failures) != 1 {
		t.Errorf("a metric outside the specs must fail the run, got %v", r.failures)
	}
}
