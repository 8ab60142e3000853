package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"prophet/internal/collective"
	"prophet/internal/core"
	"prophet/internal/drive"
	"prophet/internal/model"
	"prophet/internal/nn"
	"prophet/internal/profiler"
	"prophet/internal/ps"
	"prophet/internal/strategy"
	"prophet/internal/transport"
)

// Drills time one layer's public functions at a workload's shapes, apart
// from the rest of the system. Each checks its own output.

// drills reports each drill's median per-call time, scaled to the
// metric's unit; a drill whose own check fails fails the run.
type drills struct {
	r      *report
	budget time.Duration
}

func (d drills) run(name string, scale float64, moves string, f func(time.Duration) (float64, int, error)) {
	v, n, err := f(d.budget)
	if err != nil {
		d.r.fail("%s: %v", name, err)
	}
	d.r.add(name, v*scale, n, moves)
}

// minDrillSamples is the fewest samples a drill's median rests on.
const minDrillSamples = 15

// drill calls f reps times per sample until budget is spent and at least
// minDrillSamples samples are taken, and returns the median per-call time
// in seconds. reps batches calls too short to time one at a time.
func drill(budget time.Duration, reps int, f func() error) (float64, int, error) {
	var samples []float64
	start := time.Now()
	for len(samples) < minDrillSamples || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(); err != nil {
				return 0, len(samples), err
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(reps))
		if pastStop() {
			break
		}
	}
	return median(samples), len(samples), nil
}

// mlpShape is what the live drills need to know about a workload's model.
type mlpShape struct {
	workers int
	layers  []int
	batch   int
	seed    uint64
	ds      *nn.Dataset
}

func (s mlpShape) tensorElems() []int {
	var out []int
	for _, t := range nn.NewMLP(s.layers, s.seed).Tensors() {
		out = append(out, t.Elems)
	}
	return out
}

func (s mlpShape) largest() int {
	big := 0
	for _, e := range s.tensorElems() {
		big = max(big, e)
	}
	return big
}

// nnFwdBwd is one worker's compute on one batch with no exchange: the
// single-worker baseline of every live iteration.
func nnFwdBwd(s mlpShape, budget time.Duration) (float64, int, error) {
	m := nn.NewMLP(s.layers, s.seed)
	x, labels := s.ds.Batch(0, s.batch)
	return drill(budget, 10, func() error {
		loss := m.Backward(m.Forward(x), labels, nil)
		m.Step(0.1)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			return fmt.Errorf("nn: loss %v", loss)
		}
		return nil
	})
}

// nnLossEval is the full-dataset loss worker 0 evaluates every iteration.
func nnLossEval(s mlpShape, budget time.Duration) (float64, int, error) {
	m := nn.NewMLP(s.layers, s.seed)
	return drill(budget, 1, func() error {
		if l := m.Loss(s.ds.X, s.ds.Labels); !(l > 0) || math.IsInf(l, 0) {
			return fmt.Errorf("nn: full-dataset loss %v", l)
		}
		return nil
	})
}

// measuredProfile is what live Prophet plans from: the generation times
// of one real backward pass.
func measuredProfile(s mlpShape) (*core.Profile, error) {
	m := nn.NewMLP(s.layers, s.seed)
	x, labels := s.ds.Batch(0, s.batch)
	gen := make([]float64, m.NumTensors())
	sizes := make([]float64, m.NumTensors())
	for i, t := range m.Tensors() {
		sizes[i] = float64(8 * t.Elems)
	}
	start := time.Now()
	m.Backward(m.Forward(x), labels, func(idx int) { gen[idx] = time.Since(start).Seconds() })
	return core.NewProfile(gen, sizes, 1e-6)
}

// syncTx is a Transmitter whose sends complete inside Start, like the live
// path's decision replay: the drill times drive and the scheduler alone.
type syncTx struct {
	d            *drive.Driver
	sends, lasts int
}

func (t *syncTx) Busy(int) bool { return false }

func (t *syncTx) Start(s *drive.Send) {
	t.sends++
	for _, rg := range s.Ranges {
		if rg.Last {
			t.lasts++
		}
	}
	t.d.Completed(s.Lane, 0)
}

// driveDispatch is the per-send cost of drive.Driver running prophet over a
// synchronous Transmitter, releasing gradients as prof says.
func driveDispatch(prof *core.Profile, bw float64, budget time.Duration) (float64, int, error) {
	sched, err := strategy.New("prophet", strategy.Params{
		Sizes: prof.Bytes, Profile: prof, Bandwidth: func() float64 { return bw },
	})
	if err != nil {
		return 0, 0, err
	}
	n := len(prof.Gen)
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i // backward releases the highest index first
	}
	tx := &syncTx{}
	d := drive.New(sched, tx, 1, n, nil)
	tx.d = d
	iter := 0
	const itersPerSample = 50
	sec, samples, err := drill(budget, itersPerSample, func() error {
		tx.lasts = 0
		d.BeginIteration(iter)
		last := 0.0
		for _, g := range order {
			last = math.Max(last, prof.Gen[g])
			d.Generate(g, last)
		}
		d.Pump(last)
		d.EndIteration(last)
		iter++
		if tx.lasts != n {
			return fmt.Errorf("drive: %d of %d gradients completed", tx.lasts, n)
		}
		return nil
	})
	if err != nil || tx.sends == 0 {
		return 0, samples, err
	}
	return sec * float64(iter) / float64(tx.sends), samples, nil
}

// coreAssemble is Algorithm 1 planning once from prof at bandwidth bw.
func coreAssemble(prof *core.Profile, bw float64, budget time.Duration) (float64, int, error) {
	return drill(budget, 20, func() error {
		plan, err := core.Assemble(prof, core.Config{Bandwidth: bw})
		if err == nil && len(plan.Units) == 0 {
			err = fmt.Errorf("core: empty plan")
		}
		return err
	})
}

// profilerCold profiles ResNet50 at batch 32 with a fresh seed per call,
// so the profiler's process-wide cache never answers.
func profilerCold(budget time.Duration) (float64, int, error) {
	wire := model.WithWireFactor(model.ResNet50(), wireFactor)
	agg := fig8Agg(wire)
	seed := uint64(1 << 40)
	return drill(budget, 1, func() error {
		seed++
		res, err := profiler.Run(profiler.Config{Model: wire, Hardware: model.M60Like(), Batch: 32, Agg: agg, Seed: seed})
		if err == nil && len(res.Gen) == 0 {
			err = fmt.Errorf("profiler: empty profile")
		}
		return err
	})
}

func constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// filled returns W buffers of n values, worker w's all equal to w+1: their
// element-wise mean is (W+1)/2 exactly for the worker counts used here.
func filled(workers, n int) [][]float64 {
	out := make([][]float64, workers)
	for w := range out {
		out[w] = constant(n, float64(w+1))
	}
	return out
}

func checkMean(xs []float64, workers int) error {
	want := float64(workers+1) / 2
	for i, v := range xs {
		if v != want {
			return fmt.Errorf("element %d is %v, want mean %v", i, v, want)
		}
	}
	return nil
}

// psPushPull times one iteration's exchange on the muxed PS: every one of
// W MuxWorkers sends all tensors as one PushPullBatch to Server.ServeMux
// over net.Pipe, then waits for every aggregated mean.
func psPushPull(s mlpShape, budget time.Duration) (float64, int, error) {
	elems := s.tensorElems()
	W := s.workers
	srv := ps.NewServer(W)
	a, b := net.Pipe()
	ids := make([]int, W)
	tensors := make([]int, len(elems))
	grads := make([][][]float64, W)
	for w := range ids {
		ids[w] = w
	}
	for t := range tensors {
		tensors[t] = t
	}
	for w := range grads {
		for _, n := range elems {
			grads[w] = append(grads[w], constant(n, float64(w+1)))
		}
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeMux(b, ids) }()
	g := ps.NewMuxGroup(a, W, ps.MuxGroupOptions{})
	iter := 0
	sec, n, err := drill(budget, 1, func() error {
		errs := make([]error, W)
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mw := g.Worker(w)
				chans := make([]<-chan ps.PullResult, len(tensors))
				if err := mw.PushPullBatch(iter, tensors, func(t int) []float64 { return grads[w][t] },
					func(t int, ch <-chan ps.PullResult) { chans[t] = ch }); err != nil {
					errs[w] = err
					return
				}
				for _, ch := range chans {
					res := <-ch
					if res.Err != nil {
						errs[w] = res.Err
						return
					}
					if err := checkMean(res.Data, W); err != nil && errs[w] == nil {
						errs[w] = fmt.Errorf("ps: %w", err)
					}
					mw.Recycle(res.Data)
				}
			}(w)
		}
		wg.Wait()
		iter++
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	g.Close()
	b.Close()
	if serr := <-serveDone; err == nil && serr != nil {
		err = fmt.Errorf("ps: ServeMux: %w", serr)
	}
	return sec, n, err
}

// frameRoundTrip is the codec alone: the largest tensor through
// FrameWriter into memory and back through FrameReader.
func frameRoundTrip(s mlpShape, budget time.Duration) (float64, int, error) {
	x := make([]float64, s.largest())
	for i := range x {
		x[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	fw := transport.NewFrameWriter(&buf)
	fr := transport.NewFrameReader(&buf, transport.NewPayloadPool())
	dst := make([]float64, len(x))
	return drill(budget, 50, func() error {
		if err := fw.WriteFloats(transport.Push, 1, 0, x); err != nil {
			return err
		}
		f, err := fr.Read()
		if err != nil {
			return err
		}
		err = transport.DecodeFloatsInto(dst, f.Payload)
		fr.Recycle(f)
		if err == nil && !sameBits(dst, x) {
			err = fmt.Errorf("transport: frame round trip changed the payload")
		}
		return err
	})
}

// ringAllReduce times Peer.AllReduce of the largest tensor on W peers of
// one unshaped ring fabric.
func ringAllReduce(s mlpShape, budget time.Duration) (float64, int, error) {
	W := s.workers
	fab, err := collective.New("ring", W, 0, collective.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer fab.Close()
	n := s.largest()
	iter := 0
	return drill(budget, 1, func() error {
		data := filled(W, n)
		errs := make([]error, W)
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if errs[w] = fab.Peer(w).AllReduce(iter, data[w], nil); errs[w] == nil {
					errs[w] = checkMean(data[w], W)
				}
			}(w)
		}
		wg.Wait()
		iter++
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("collective: %w", err)
			}
		}
		return nil
	})
}
