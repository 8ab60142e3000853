// Command perfbench is the repository's benchmark. It drives one workload
// per process through the system's public entry points (emu.Run,
// cluster.Run, profiler.Run, core.Assemble) from the process's main
// goroutine, measures every number from outside the program, checks the
// program's outputs, and prints one JSON result as its last line.
//
//	perfbench --workload emu-ps-mux-w32 --seed 7 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload again under a benchmark-owned observer and metrics registry and
// prints the per-layer metrics instead. NOTES.md records why each workload
// exists and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input. Both methods measure for about budget
// and return the metrics of their mode.
type workload interface {
	run(seed uint64, budget time.Duration) *report
	trace(seed uint64, budget time.Duration) *report
}

var workloads = map[string]workload{
	"emu-ps-mux-w32":         psMux32,
	"emu-ring-w32":           ring32,
	"emu-ps-shaped-audit-w8": shapedAudit8,
	"sim-fig8":               simFig8{},
}

// spec is one metric of BENCHMARK.json: its name and unit.
type spec struct{ name, unit string }

// endToEnd and perLayer list BENCHMARK.json's metrics in print order; a
// test keeps them equal to the file.
var (
	endToEnd = []spec{
		{"samples_per_s", "samples/s"}, {"iter_ms.p50", "ms"}, {"iter_ms.p90", "ms"},
		{"cpu_ms_per_iter", "ms"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
	}
	perLayer = []spec{
		{"nn.generation_ms", "ms"}, {"nn.fwd_bwd_ms", "ms"}, {"nn.loss_eval_ms", "ms"},
		{"drive.prio_wait_ms", "ms"}, {"drive.bw_wait_ms", "ms"}, {"drive.sends_per_iter", "count"},
		{"drive.fetch_gated_per_iter", "count"}, {"drive.dispatch_us_per_send", "us"},
		{"core.assemble_us", "us"}, {"profiler.run_ms", "ms"},
		{"ps.ack_ms", "ms"}, {"ps.pushes_per_iter", "count"}, {"ps.pulls_per_iter", "count"},
		{"ps.failures", "count"}, {"ps.pushpull_ms", "ms"},
		{"transport.tx_kb_per_iter", "KB"}, {"transport.writes_per_iter", "count"},
		{"transport.bytes_per_write", "B"}, {"transport.frame_rt_us", "us"},
		{"collective.steps_per_iter", "count"}, {"collective.step_ms.p50", "ms"},
		{"collective.step_ms.p90", "ms"}, {"collective.allreduce_ms", "ms"},
		{"wire.transmit_ms", "ms"}, {"wire.t0_rt_ms.p50", "ms"},
		{"probe.events_per_iter", "count"}, {"predict.joined_ratio", "ratio"}, {"predict.alarms", "count"},
		{"runtime.alloc_kb_per_iter", "KB"}, {"runtime.mallocs_per_iter", "count"},
		{"runtime.gc_per_iter", "count"}, {"runtime.goroutines_peak", "count"},
		{"trace.overhead_pct", "%"},
	}
)

// metric is one reported number. n is how many samples it summarises and
// moves names the end-to-end metric and workload a per-layer metric should
// move.
type metric struct {
	name  string
	value float64
	n     int
	moves string
}

// report is one run's outcome: its metrics, the iteration tally behind the
// error rate, and why the correctness gate failed, if it did.
type report struct {
	metrics  []metric
	t        tally
	failures []string
}

// fail records a correctness failure: every iteration of the run counts as
// failed.
func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.t.failAll()
}

func (r *report) add(name string, value float64, n int, moves string) {
	r.metrics = append(r.metrics, metric{name, value, n, moves})
}

// complete puts the metrics in the order of specs and reports a layer the
// workload does not run as 0 from no samples. A metric outside specs is a
// benchmark bug and fails the run.
func (r *report) complete(specs []spec) {
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		m, ok := byName[s.name]
		if !ok {
			m = metric{name: s.name, moves: "not on this workload's path"}
		}
		delete(byName, s.name)
		out = append(out, m)
	}
	for name := range byName {
		r.fail("metric %s is not in BENCHMARK.json", name)
	}
	r.metrics = out
}

// print writes every metric with its unit from specs, the error rate and
// any gate failures, then the JSON result line.
func (r *report) print(specs []spec) {
	r.complete(specs)
	units := map[string]string{}
	for _, s := range specs {
		units[s.name] = s.unit
	}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.fail("metric %s is %v", m.name, m.value)
		}
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-30s %14.6g %-9s n=%-6d", m.name, m.value, units[m.name], m.n)
		if m.moves != "" {
			line += " -> " + m.moves
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted iterations)\n",
		r.t.errorRate(), r.t.failed, r.t.attempted)
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(r.failures) == 0,
		Attempted: r.t.attempted,
		Failed:    r.t.failed,
		Metrics:   map[string]value{},
	}
	if out.Attempted == 0 {
		out.Attempted, out.Failed, out.Correct = 1, 1, false
	}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, units[m.name]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), "|"))
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}

	stopAt = time.Now().Add(stopAfter)
	time.AfterFunc(killAfter, func() {
		fmt.Printf("FAILED: watchdog: run still going after %v\n", killAfter)
		fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
		os.Exit(0)
	})

	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *traced)
	fmt.Println("host", hostStamp())
	before := readNoise()
	budget := time.Duration(*seconds) * time.Second
	var r *report
	specs := endToEnd
	if *traced == 1 {
		r, specs = w.trace(*seed, budget), perLayer
	} else {
		r = w.run(*seed, budget)
	}
	after := readNoise()
	fmt.Printf("noise steal_ticks=%d loadavg_before=%q loadavg_after=%q (diagnostic only)\n",
		after.steal-before.steal, before.load, after.load)
	r.print(specs)
}

// A run must end within 180 s. Sampling loops and drills stop taking new
// samples at stopAfter even when their minimums are not met; if anything
// still runs at killAfter (a hang), the process reports itself failed and
// exits.
const (
	stopAfter = 120 * time.Second
	killAfter = 170 * time.Second
)

var stopAt time.Time

func pastStop() bool { return !stopAt.IsZero() && time.Now().After(stopAt) }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
