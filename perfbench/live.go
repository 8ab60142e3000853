package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"prophet/internal/emu"
	"prophet/internal/nn"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/probe/predict"
)

// liveWorkload is one emulated training job: prophet scheduling over a live
// wire, real SGD on an MLP over nn.Blobs(2048, 16, 4, seed). A run repeats
// emu.Run ("episodes") until its budget is spent, so set-up is sampled
// once per episode and iteration times pool across episodes.
type liveWorkload struct {
	workers   int
	layers    []int
	batch     int
	transport string  // emu.Config.Transport; "" is the parameter server
	mux       bool    // every worker on one shared PS connection
	bandwidth float64 // per-worker bytes/s; 0 leaves the wire unshaped
	audit     bool    // SpanRecorder + predict.Auditor, as prophet-emu -audit -attrib
	timed     int     // timed iterations per episode
	// lossTol is the largest relative loss difference the correctness gate
	// allows; 0 demands identical bits.
	lossTol float64
}

var (
	// All workers share one MuxConn into one ps.ServeMux: the frame codec,
	// the mux, PS aggregation and drive dispatch carry the CPU.
	psMux32 = &liveWorkload{workers: 32, layers: []int{16, 64, 64, 4}, batch: 16, mux: true, timed: 40}
	// The same job on the collective fabric: identical decisions, so the
	// gap to psMux32 is the wire engine's. The ring sums each segment in a
	// rotated worker order that follows the op's tensor layout, and
	// Prophet's ops follow timings measured in iteration 0, so its losses
	// match the parameter server's, and one another, only to rounding
	// (about 1e-15 relative at this shape).
	ring32 = &liveWorkload{workers: 32, layers: []int{16, 64, 64, 4}, batch: 16, transport: "ring", timed: 12, lossTol: 1e-12}
	// A shaped wire sets iteration time, so CPU-layer changes should not
	// show here; scheduling quality shows in tensor 0's round trip.
	shapedAudit8 = &liveWorkload{workers: 8, layers: []int{16, 128, 128, 4}, batch: 64, bandwidth: 4e6, audit: true, timed: 20}
)

const (
	// warmIters are excluded from every timing: iteration 0 runs FIFO
	// while Prophet profiles, iteration 1 is the first planned one.
	warmIters = 2
	// episodeLimit is the benchmark's own watchdog on one emu.Run.
	episodeLimit = 60 * time.Second
)

func (lw *liveWorkload) config(ds *nn.Dataset, seed uint64) emu.Config {
	return emu.Config{
		Workers:              lw.workers,
		Layers:               lw.layers,
		Dataset:              ds,
		Batch:                lw.batch,
		Iterations:           warmIters + lw.timed,
		LR:                   0.1,
		Policy:               "prophet",
		BandwidthBytesPerSec: lw.bandwidth,
		Seed:                 seed,
		Transport:            lw.transport,
		Mux:                  lw.mux,
		Predict:              lw.audit,
	}
}

// auditObservers attaches what prophet-emu -audit -attrib attaches, and
// returns the post-run analysis that command performs.
func (lw *liveWorkload) auditObservers(cfg *emu.Config) (finish func()) {
	if !lw.audit {
		return func() {}
	}
	rec := probe.NewSpanRecorder()
	rec.SetIterationHint(cfg.Iterations)
	rec.SetVolumeHint(cfg.Iterations*2*(len(cfg.Layers)-1), cfg.Workers)
	aud := predict.NewAuditor(predict.Options{Metrics: cfg.Metrics})
	cfg.Observer = probe.NewMulti(cfg.Observer, rec, aud)
	return func() {
		attrib.Analyze(rec, 3).Render(io.Discard)
		aud.Flush()
		aud.Report().Render(io.Discard)
	}
}

type episode struct {
	res  *emu.Result
	wall time.Duration
	err  error
}

// runEpisode runs one emu.Run under the benchmark's watchdog. The
// program's own Deadline and PullTimeout stay unset: either one arms a
// per-pull timer and straggler handling, a different path from the one
// measured. A hung Run is abandoned; the process reports and exits.
func runEpisode(cfg emu.Config) episode {
	done := make(chan episode, 1)
	go func() {
		t0 := time.Now()
		res, err := emu.Run(cfg)
		done <- episode{res, time.Since(t0), err}
	}()
	timer := time.NewTimer(episodeLimit)
	defer timer.Stop()
	select {
	case ep := <-done:
		if ep.err == nil && len(ep.res.IterationTime) != cfg.Iterations {
			ep.err = fmt.Errorf("emu.Run returned %d iteration times for %d iterations", len(ep.res.IterationTime), cfg.Iterations)
		}
		return ep
	case <-timer.C:
		return episode{err: fmt.Errorf("watchdog: emu.Run still running after %v", episodeLimit)}
	}
}

// sameBits reports whether two loss curves are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// lossGate is the correctness gate: every episode's losses must equal the
// first episode's, and the first must equal the repository's own fifo run
// over dedicated PS connections at the same workers, model and seed, both
// within the workload's lossTol. The parameter server aggregates each
// tensor in a fixed order, so there schedule and shaping may change timing
// but never a bit of a loss.
type lossGate struct {
	tol   float64
	first []float64
	worst float64 // largest relative difference seen
}

// matches compares losses against want under the gate's tolerance.
func (g *lossGate) matches(losses, want []float64) bool {
	if g.tol == 0 {
		return sameBits(losses, want)
	}
	d := maxRelDiff(losses, want)
	g.worst = math.Max(g.worst, d)
	return d <= g.tol
}

func (g *lossGate) check(r *report, losses []float64) bool {
	if g.first == nil {
		g.first = append([]float64(nil), losses...)
		return true
	}
	if !g.matches(losses, g.first) {
		r.fail("losses differ between episodes of one run")
		return false
	}
	return true
}

// reference runs the fifo/dedicated-PS job after all timing and compares.
func (g *lossGate) reference(r *report, lw *liveWorkload, ds *nn.Dataset, seed uint64) {
	if g.first == nil {
		return
	}
	cfg := lw.config(ds, seed)
	cfg.Policy, cfg.Transport, cfg.Mux, cfg.BandwidthBytesPerSec, cfg.Predict = "fifo", "ps", false, 0, false
	ep := runEpisode(cfg)
	switch {
	case ep.err != nil:
		r.fail("reference fifo run: %v", ep.err)
	case !g.matches(g.first, ep.res.Losses):
		r.fail("losses differ from the fifo dedicated-PS reference")
	case g.tol == 0:
		fmt.Printf("gate losses bit-identical across episodes and to the fifo/dedicated-PS reference (final loss %.17g)\n", g.first[len(g.first)-1])
	default:
		fmt.Printf("gate losses within %.3g relative across episodes and of the fifo/dedicated-PS reference (largest %.3g; final loss %.17g)\n", g.tol, g.worst, g.first[len(g.first)-1])
	}
}

// maxRelDiff is the largest |a−b|/|b| over two equal-length curves, +Inf
// when the lengths differ.
func maxRelDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i])/math.Abs(b[i]))
	}
	return worst
}

// sampler holds the end-to-end samples of a run's episodes.
type sampler struct {
	iterMs   []float64 // timed iteration wall times
	t0Ms     []float64 // timed iterations' tensor-0 round trips
	rates    []float64 // per-episode samples/s
	setups   []float64 // per-episode set-up seconds
	executed int       // iterations run, warm-up included
}

func (s *sampler) add(lw *liveWorkload, ep episode) {
	it := ep.res.IterationTime
	timed := it[warmIters:]
	var sum time.Duration
	for _, d := range timed {
		sum += d
	}
	s.iterMs = append(s.iterMs, durationsMs(timed)...)
	s.t0Ms = append(s.t0Ms, durationsMs(ep.res.Tensor0RoundTrip[warmIters:])...)
	s.rates = append(s.rates, float64(lw.batch*len(timed))/sum.Seconds())
	s.setups = append(s.setups, setupSeconds(ep.wall, it, warmIters))
	s.executed += len(it)
}

// episodes runs episodes until the sampler has enough, passing each
// through the loss gate. It returns false when an episode failed.
func (lw *liveWorkload) episodes(r *report, g *lossGate, s *sampler, ds *nn.Dataset, seed uint64, q quota, h hook[emu.Config]) bool {
	start := time.Now()
	for !q.met(start, len(s.iterMs), len(s.setups)) {
		runtime.GC() // every episode starts from a collected heap
		cfg := lw.config(ds, seed)
		if h.before != nil {
			h.before(&cfg)
		}
		finish := lw.auditObservers(&cfg)
		ep := runEpisode(cfg)
		if h.after != nil {
			h.after()
		}
		if ep.err != nil {
			r.t.add(lw.timed, false)
			r.fail("episode: %v", ep.err)
			return false
		}
		finish()
		r.t.add(lw.timed, g.check(r, ep.res.Losses))
		s.add(lw, ep)
	}
	return true
}

func (lw *liveWorkload) run(seed uint64, budget time.Duration) *report {
	r := &report{}
	ds := nn.Blobs(2048, 16, 4, seed)
	g := lossGate{tol: lw.lossTol}
	var s sampler
	cpu0 := cpuTime()
	ok := lw.episodes(r, &g, &s, ds, seed, endToEndQuota(budget), hook[emu.Config]{})
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	if ok {
		g.reference(r, lw, ds, seed)
	}

	p50, _ := quantile(s.iterMs, 0.5)
	p90, tail := quantile(s.iterMs, 0.9)
	if !tail {
		fmt.Printf("warning: iter_ms.p90 has fewer than %d samples beyond it\n", minTail)
	}
	executed := math.Max(float64(s.executed), 1)
	r.add("samples_per_s", median(s.rates), len(s.rates), "")
	r.add("iter_ms.p50", p50, len(s.iterMs), "")
	r.add("iter_ms.p90", p90, len(s.iterMs), "")
	r.add("cpu_ms_per_iter", float64(cpu)/1e6/executed, s.executed, "")
	r.add("setup_s", median(s.setups), len(s.setups), "")
	r.add("peak_rss_mb", rss, 1, "")
	return r
}

// trace spends a quarter of the budget on untraced episodes with the
// runtime's counters read around each Run, a quarter on episodes traced
// by the benchmark's observer and a metrics registry, and the rest on the
// layer drills at this workload's shapes.
func (lw *liveWorkload) trace(seed uint64, budget time.Duration) *report {
	r := &report{}
	ds := nn.Blobs(2048, 16, 4, seed)
	g := lossGate{tol: lw.lossTol}
	var plainS, tracedS sampler
	var rt runtimeStats
	ok := lw.episodes(r, &g, &plainS, ds, seed, quota{budget: budget / 4, runs: 1}, hook[emu.Config]{before: func(*emu.Config) { rt.begin() }, after: rt.end})

	cnt := &counter{}
	reg := probe.NewMetrics()
	var waits waitMeans
	var rec *probe.SpanRecorder
	traced := hook[emu.Config]{
		before: func(cfg *emu.Config) {
			rec = probe.NewSpanRecorder()
			cfg.Observer = probe.NewMulti(cnt, rec)
			cfg.Metrics = reg
		},
		after: func() { waits.add(rec, warmIters) },
	}
	ok = ok && lw.episodes(r, &g, &tracedS, ds, seed, quota{budget: budget / 4, runs: 1}, traced)
	if ok {
		g.reference(r, lw, ds, seed)
	}

	shape := mlpShape{workers: lw.workers, layers: lw.layers, batch: lw.batch, seed: seed, ds: ds}
	allLive := "cpu_ms_per_iter, iter_ms.p50 on all live workloads"
	unshaped := "cpu_ms_per_iter on emu-ps-mux-w32 and emu-ring-w32"
	shaped := "wire.t0_rt_ms.p50 (tensor 0 round trip) on emu-ps-shaped-audit-w8"
	iters := tracedS.executed
	perIter := func(v int64) float64 { return float64(v) / math.Max(float64(iters), 1) }
	counters, _ := reg.Snapshot()

	r.add("nn.generation_ms", waits.get("nn.generation_ms"), waits.n, allLive)
	d := drills{r, budget / 2 / 8}
	d.run("nn.fwd_bwd_ms", 1e3, allLive, func(b time.Duration) (float64, int, error) { return nnFwdBwd(shape, b) })
	d.run("nn.loss_eval_ms", 1e3, allLive, func(b time.Duration) (float64, int, error) { return nnLossEval(shape, b) })

	r.add("drive.prio_wait_ms", waits.get("drive.prio_wait_ms"), waits.n, shaped)
	r.add("drive.bw_wait_ms", waits.get("drive.bw_wait_ms"), waits.n, shaped)
	r.add("drive.sends_per_iter", perIter(cnt.sends.Load()), iters, "cpu_ms_per_iter on emu-ps-mux-w32")
	r.add("drive.fetch_gated_per_iter", perIter(cnt.gated.Load()), iters, shaped)
	prof, err := measuredProfile(shape)
	if err != nil {
		r.fail("profile: %v", err)
	}
	bw := lw.bandwidth
	if bw == 0 {
		bw = 1e9 // strategy's default when the wire is unshaped
	}
	d.run("drive.dispatch_us_per_send", 1e6, "cpu_ms_per_iter on emu-ps-mux-w32", func(b time.Duration) (float64, int, error) { return driveDispatch(prof, bw, b) })
	d.run("core.assemble_us", 1e6, "setup_s on live workloads (Prophet plans after iteration 0)", func(b time.Duration) (float64, int, error) { return coreAssemble(prof, bw, b) })

	psMoves := "samples_per_s, iter_ms.p50 on emu-ps-mux-w32; " + shaped + "; flat on emu-ring-w32"
	r.add("ps.ack_ms", waits.get("ps.ack_ms"), waits.n, psMoves)
	r.add("ps.pushes_per_iter", perIter(counters["ps_server_pushes"]), iters, psMoves)
	r.add("ps.pulls_per_iter", perIter(counters["ps_server_pulls"]), iters, psMoves)
	r.add("ps.failures", float64(counters["ps_server_worker_failures"]), iters, "error_rate")
	d.run("ps.pushpull_ms", 1e3, psMoves, func(b time.Duration) (float64, int, error) { return psPushPull(shape, b) })

	tx := counters["transport_worker_tx_bytes"] + counters["transport_collective_tx_bytes"]
	writes := counters["transport_worker_writes"] + counters["transport_collective_writes"]
	r.add("transport.tx_kb_per_iter", perIter(tx)/1024, iters, unshaped)
	r.add("transport.writes_per_iter", perIter(writes), iters, unshaped)
	r.add("transport.bytes_per_write", float64(tx)/math.Max(float64(writes), 1), int(writes), unshaped)
	d.run("transport.frame_rt_us", 1e6, unshaped, func(b time.Duration) (float64, int, error) { return frameRoundTrip(shape, b) })

	ringMoves := "samples_per_s, iter_ms.p50 on emu-ring-w32 only"
	cnt.mu.Lock()
	steps := cnt.stepMs
	cnt.mu.Unlock()
	stepP50, _ := quantile(steps, 0.5)
	stepP90, _ := quantile(steps, 0.9)
	if len(steps) == 0 {
		stepP50, stepP90 = 0, 0
	}
	r.add("collective.steps_per_iter", perIter(int64(len(steps))), iters, ringMoves)
	r.add("collective.step_ms.p50", stepP50, len(steps), ringMoves)
	r.add("collective.step_ms.p90", stepP90, len(steps), ringMoves)
	d.run("collective.allreduce_ms", 1e3, ringMoves, func(b time.Duration) (float64, int, error) { return ringAllReduce(shape, b) })

	r.add("wire.transmit_ms", waits.get("wire.transmit_ms"), waits.n, "iter_ms.p50 on emu-ps-mux-w32 and emu-ring-w32")
	t0, _ := quantile(plainS.t0Ms, 0.5)
	r.add("wire.t0_rt_ms.p50", t0, len(plainS.t0Ms), "the paper's T_wait; steady only on emu-ps-shaped-audit-w8")

	auditMoves := "cpu_ms_per_iter, samples_per_s on emu-ps-shaped-audit-w8 only"
	r.add("probe.events_per_iter", perIter(cnt.events.Load()), iters, auditMoves)
	joined := 0.0
	if p := counters["predict_planned"]; p > 0 {
		joined = float64(counters["predict_joined"]) / float64(p)
	}
	r.add("predict.joined_ratio", joined, int(counters["predict_planned"]), auditMoves)
	r.add("predict.alarms", float64(counters["predict_alarms"]), iters, auditMoves)

	rt.report(r, plainS.executed, unshaped+"; peak_rss_mb")
	r.add("trace.overhead_pct", 100*(1-median(tracedS.rates)/median(plainS.rates)), len(tracedS.rates), "")
	return r
}
