package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"prophet/internal/cluster"
	"prophet/internal/core"
	"prophet/internal/experiments"
	"prophet/internal/model"
	"prophet/internal/netsim"
	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
	"prophet/internal/profiler"
	"prophet/internal/stepwise"
)

// simFig8 is the simulator on experiments.Fig8's job list: what a
// `prophet-bench -only fig8` user waits for. cluster, sim, netsim, drive and
// core do all the work; no live layer runs.
type simFig8 struct{}

// The constants of experiments.Fig8 and its helpers, restated because the
// benchmark drives only public entry points; the gate below checks the
// restatement against the experiment's own output.
const (
	fig8Workers    = 3
	fig8Iterations = 12
	fig8Warmup     = 2
	wireFactor     = 2
	bsCredit       = 4e6
)

type fig8Job struct {
	base  func() *model.Model
	batch int
}

var fig8Jobs = []fig8Job{
	{model.ResNet18, 16}, {model.ResNet18, 32}, {model.ResNet18, 64},
	{model.ResNet50, 16}, {model.ResNet50, 32}, {model.ResNet50, 64},
	{model.ResNet152, 16}, {model.ResNet152, 32},
	{model.InceptionV3, 16}, {model.InceptionV3, 32},
}

// simConfig is one prepared (job, scheduler) simulation.
type simConfig struct {
	job   fig8Job
	name  string // "prophet" or "bytescheduler"
	cfg   cluster.Config
	prof  *profiler.Result
	wired *model.Model
}

// fig8Link is Fig. 8's shared 10 Gbps PS NIC: each worker gets a 1/W share.
func fig8Link(int) netsim.LinkConfig {
	return netsim.DefaultLinkConfig(netsim.Const(netsim.Goodput(netsim.Gbps(10)) / fig8Workers))
}

// fig8Agg is Fig. 8's gradient bucketing: about 13 buckets, none under 4 MB.
func fig8Agg(wire *model.Model) stepwise.Buckets {
	return stepwise.Aggregate(wire, math.Max(wire.TotalBytes()/13, 4e6), 0)
}

// prepareFig8 does what a Fig. 8 run does before it simulates: build each
// model, bucket its gradients, profile it (profSeed keys the profiler's
// process-wide cache, so a fresh seed makes the call cold) and construct
// both scheduler factories.
func prepareFig8(seed, profSeed uint64) ([]simConfig, error) {
	var out []simConfig
	for _, j := range fig8Jobs {
		wire := model.WithWireFactor(j.base(), wireFactor)
		agg := fig8Agg(wire)
		prof, err := profiler.Run(profiler.Config{
			Model: wire, Hardware: model.M60Like(), Batch: j.batch, Agg: agg, Seed: profSeed,
		})
		if err != nil {
			return nil, err
		}
		for _, s := range []struct {
			name string
			f    cluster.SchedulerFactory
		}{
			{"prophet", cluster.ProphetFactory(prof.Profile())},
			{"bytescheduler", cluster.ByteSchedulerFactory(wire, bsCredit)},
		} {
			out = append(out, simConfig{job: j, name: s.name, prof: prof, wired: wire, cfg: cluster.Config{
				Model: wire, Batch: j.batch, Workers: fig8Workers, Agg: agg, Uplink: fig8Link,
				Scheduler: s.f, Iterations: fig8Iterations, Seed: seed,
			}})
		}
	}
	return out, nil
}

// simSeed maps the benchmark seed onto the simulator's, which treats 0 as
// "use the default 1" in experiments.Config.
func simSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// setupReps is how many cold set-ups a run times; setup_s is their median.
const setupReps = 40

// coldSetups times setupReps cold preparations by the preparing thread's
// CPU time, as simPass times simulation. The first uses the seed
// experiments.Fig8 uses, and its configs are the ones the run simulates.
func coldSetups(seed uint64) ([]simConfig, []float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var cfgs []simConfig
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // every set-up starts from a collected heap
		t0 := threadCPUTime()
		c, err := prepareFig8(seed, seed*97+uint64(rep))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, (threadCPUTime() - t0).Seconds())
		if rep == 0 {
			cfgs = c
		}
	}
	return cfgs, setups, nil
}

// simPass simulates every config once and returns each run's steady-state
// rate and the time the cluster.Run calls alone took: the simulating
// thread's CPU time, and the wall time. The simulator is single-threaded
// and the caller holds its OS thread, so the thread's CPU time is the
// simulator's work without the host's steal, which on a shared host moved
// the wall time of identical runs by up to a third.
func simPass(cfgs []simConfig, h hook[cluster.Config]) (rates []float64, cpu, wall time.Duration, err error) {
	for _, c := range cfgs {
		cfg := c.cfg
		if h.before != nil {
			h.before(&cfg)
		}
		c0, t0 := threadCPUTime(), time.Now()
		res, err := cluster.Run(cfg)
		cpu += threadCPUTime() - c0
		wall += time.Since(t0)
		if h.after != nil {
			h.after()
		}
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s batch %d %s: %w", c.wired.Name, c.job.batch, c.name, err)
		}
		rates = append(rates, res.Rate(fig8Warmup))
	}
	return rates, cpu, wall, nil
}

// rateGate is the simulator's correctness gate: simulated rates are
// deterministic, so every pass must repeat the first exactly, and the
// first must equal experiments.Fig8's own rows at the same seed.
type rateGate struct {
	first []float64
}

func (g *rateGate) check(r *report, rates []float64) bool {
	if g.first == nil {
		g.first = rates
		return true
	}
	if !sameBits(g.first, rates) {
		r.fail("simulated rates differ between passes")
		return false
	}
	return true
}

func (g *rateGate) reference(r *report, cfgs []simConfig, seed uint64) {
	res, err := experiments.Fig8(experiments.Config{Seed: seed})
	if err != nil {
		r.fail("experiments.Fig8: %v", err)
		return
	}
	var want []float64
	for _, row := range res.Rows {
		want = append(want, row.Prophet, row.BS)
	}
	if !sameBits(g.first, want) {
		r.fail("simulated rates differ from experiments.Fig8")
		return
	}
	var pro float64
	for i, c := range cfgs {
		if c.name == "prophet" {
			pro += g.first[i]
		}
	}
	fmt.Printf("gate rates bit-identical to experiments.Fig8; sim_samples_per_s (Prophet, mean over %d configs) %.17g\n",
		len(fig8Jobs), pro/float64(len(fig8Jobs)))
}

// passStats sums the passes of one sampling loop.
type passStats struct {
	iterMs         []float64 // per pass: thread CPU ms per simulated iteration
	cpu, wall      time.Duration
	iters, samples float64 // simulated iterations and per-worker samples
}

// passes simulates the whole job list repeatedly until the quota is met,
// passing each pass through the gate. A pass's timing sample is its CPU
// time per simulated iteration: single iterations take well under a
// millisecond and are not timed one by one.
func passes(r *report, g *rateGate, cfgs []simConfig, q quota, h hook[cluster.Config]) passStats {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	passIters := float64(len(cfgs) * fig8Iterations)
	passSamples := 0.0
	for _, c := range cfgs {
		passSamples += float64(c.job.batch * fig8Iterations)
	}
	var ps passStats
	start := time.Now()
	for !q.met(start, len(ps.iterMs), len(ps.iterMs)) {
		rates, cpu, wall, err := simPass(cfgs, h)
		if err != nil {
			r.t.add(len(cfgs)*fig8Iterations, false)
			r.fail("simulate: %v", err)
			break
		}
		r.t.add(len(cfgs)*fig8Iterations, g.check(r, rates))
		ps.iterMs = append(ps.iterMs, float64(cpu)/1e6/passIters)
		ps.cpu += cpu
		ps.wall += wall
		ps.iters += passIters
		ps.samples += passSamples
	}
	return ps
}

// rate is simulated per-worker samples per second of the simulating
// thread's CPU time.
func (ps passStats) rate() float64 { return ps.samples / ps.cpu.Seconds() }

func (simFig8) run(seed uint64, budget time.Duration) *report {
	seed = simSeed(seed)
	r := &report{}
	cfgs, setups, err := coldSetups(seed)
	if err != nil {
		r.t.add(1, false)
		r.fail("set-up: %v", err)
		return r
	}
	var g rateGate
	cpu0 := cpuTime()
	ps := passes(r, &g, cfgs, endToEndQuota(budget), hook[cluster.Config]{})
	cpu := cpuTime() - cpu0
	rss := peakRSSMB()
	if g.first != nil {
		g.reference(r, cfgs, seed)
	}
	fmt.Printf("wall clock: %.6g simulated samples/s over %v (steal-sensitive; printed, not a metric)\n",
		ps.samples/ps.wall.Seconds(), ps.wall.Round(time.Millisecond))

	p50, _ := quantile(ps.iterMs, 0.5)
	p90, _ := quantile(ps.iterMs, 0.9)
	r.add("samples_per_s", ps.rate(), len(ps.iterMs), "")
	r.add("iter_ms.p50", p50, len(ps.iterMs), "")
	r.add("iter_ms.p90", p90, len(ps.iterMs), "")
	r.add("cpu_ms_per_iter", float64(cpu)/1e6/math.Max(ps.iters, 1), int(ps.iters), "")
	r.add("setup_s", median(setups), len(setups), "")
	r.add("peak_rss_mb", rss, 1, "")
	return r
}

// trace mirrors liveWorkload.trace: a quarter of the budget untraced with
// runtime counters around each cluster.Run, a quarter under the
// benchmark's observer and a span recorder, the rest on drills at
// ResNet50/batch 32. Layers the simulator does not run report 0 (see
// report.complete).
func (simFig8) trace(seed uint64, budget time.Duration) *report {
	seed = simSeed(seed)
	r := &report{}
	cfgs, err := prepareFig8(seed, seed*97)
	if err != nil {
		r.t.add(1, false)
		r.fail("set-up: %v", err)
		return r
	}
	var g rateGate
	var rt runtimeStats
	plain := passes(r, &g, cfgs, quota{budget: budget / 4, runs: 1}, hook[cluster.Config]{before: func(*cluster.Config) { rt.begin() }, after: rt.end})

	cnt := &counter{}
	var waits waitMeans
	var rec *probe.SpanRecorder
	var t0Ms []float64
	traced := hook[cluster.Config]{
		before: func(cfg *cluster.Config) {
			rec = probe.NewSpanRecorder()
			cfg.Observer = probe.NewMulti(cnt, rec)
		},
		after: func() {
			waits.add(rec, fig8Warmup)
			for _, c := range attrib.Analyze(rec, 1).PerGrad {
				if c.Grad == 0 && c.Iter >= fig8Warmup {
					t0Ms = append(t0Ms, 1e3*c.Completion)
				}
			}
		},
	}
	tracedPasses := passes(r, &g, cfgs, quota{budget: budget / 4, runs: 1}, traced)
	if g.first != nil {
		g.reference(r, cfgs, seed)
	}

	simMoves := "samples_per_s, iter_ms.p50 on sim-fig8"
	perIter := func(v int64) float64 { return float64(v) / math.Max(tracedPasses.iters, 1) }
	var prof *core.Profile
	for _, c := range cfgs {
		if c.wired.Name == "resnet50" && c.job.batch == 32 {
			prof = c.prof.Profile()
		}
	}
	bw := netsim.Goodput(netsim.Gbps(10)) / fig8Workers
	d := drills{r, budget / 2 / 3}

	r.add("nn.generation_ms", waits.get("nn.generation_ms"), waits.n, "simulated compute; flat unless the cost model changes")
	r.add("drive.prio_wait_ms", waits.get("drive.prio_wait_ms"), waits.n, "simulated; moves only with a scheduling change")
	r.add("drive.bw_wait_ms", waits.get("drive.bw_wait_ms"), waits.n, "simulated; moves only with a scheduling change")
	r.add("drive.sends_per_iter", perIter(cnt.sends.Load()), int(tracedPasses.iters), simMoves)
	r.add("drive.fetch_gated_per_iter", perIter(cnt.gated.Load()), int(tracedPasses.iters), simMoves)
	d.run("drive.dispatch_us_per_send", 1e6, simMoves, func(b time.Duration) (float64, int, error) { return driveDispatch(prof, bw, b) })
	d.run("core.assemble_us", 1e6, "setup_s on sim-fig8", func(b time.Duration) (float64, int, error) { return coreAssemble(prof, bw, b) })
	d.run("profiler.run_ms", 1e3, "setup_s on sim-fig8", profilerCold)
	r.add("ps.ack_ms", waits.get("ps.ack_ms"), waits.n, "simulated; moves only with a scheduling change")
	r.add("wire.transmit_ms", waits.get("wire.transmit_ms"), waits.n, "simulated; moves only with a scheduling change")
	t0, _ := quantile(t0Ms, 0.5)
	r.add("wire.t0_rt_ms.p50", t0, len(t0Ms), "simulated iteration start to tensor-0 ack")
	r.add("probe.events_per_iter", perIter(cnt.events.Load()), int(tracedPasses.iters), "")
	rt.report(r, int(plain.iters), simMoves)
	r.add("trace.overhead_pct", 100*(1-tracedPasses.rate()/plain.rate()), int(tracedPasses.iters), "")
	return r
}
