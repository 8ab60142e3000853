package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prophet/internal/probe"
	"prophet/internal/probe/attrib"
)

// counter is the benchmark's own probe.Observer for traced runs: it counts
// every event, wire sends and fetch-gate holds, and keeps the duration of
// every collective chunk step. Safe for concurrent use.
type counter struct {
	events, sends, gated atomic.Int64
	mu                   sync.Mutex
	stepMs               []float64
}

func (c *counter) BeginIteration(worker, iter int, now float64) { c.events.Add(1) }
func (c *counter) EndIteration(worker, iter int, now float64)   { c.events.Add(1) }
func (c *counter) Generated(worker, grad int, now float64)      { c.events.Add(1) }
func (c *counter) ShardEnqueued(worker, lane, seq, prio int, bytes float64, depth int, now float64) {
	c.events.Add(1)
}
func (c *counter) SendStart(worker, lane, seq, iter, prio int, label string, bytes float64, ranges []probe.Range, now float64) {
	c.events.Add(1)
	c.sends.Add(1)
}
func (c *counter) SendComplete(worker, lane, iter int, msgDone bool, now float64) { c.events.Add(1) }
func (c *counter) FetchGated(worker int, now float64) {
	c.events.Add(1)
	c.gated.Add(1)
}
func (c *counter) PullAcked(worker, grad, iter int, now float64)      { c.events.Add(1) }
func (c *counter) FaultInjected(worker int, kind string, now float64) { c.events.Add(1) }

// SendStep implements probe.StepObserver.
func (c *counter) SendStep(worker, lane, seq, step, steps int, bytes float64, start, end float64) {
	c.events.Add(1)
	c.mu.Lock()
	c.stepMs = append(c.stepMs, 1e3*(end-start))
	c.mu.Unlock()
}

// hook brackets one call into a program entry point: before may attach
// observers to its config, after reads what they saw.
type hook[C any] struct {
	before func(*C)
	after  func()
}

// runtimeStats reads the Go runtime's allocation and GC counters around
// untraced runs, and samples the goroutine count while they run.
type runtimeStats struct {
	ms0                 runtime.MemStats
	alloc, mallocs, gcs uint64
	goroutinesPeak      int
	stop                chan struct{}
	wg                  sync.WaitGroup
}

func (s *runtimeStats) begin() {
	runtime.ReadMemStats(&s.ms0)
	s.stop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if n := runtime.NumGoroutine(); n > s.goroutinesPeak {
				s.goroutinesPeak = n
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
}

func (s *runtimeStats) end() {
	close(s.stop)
	s.wg.Wait()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	s.alloc += ms1.TotalAlloc - s.ms0.TotalAlloc
	s.mallocs += ms1.Mallocs - s.ms0.Mallocs
	s.gcs += uint64(ms1.NumGC - s.ms0.NumGC)
}

func (s *runtimeStats) report(r *report, iters int, moves string) {
	n := float64(iters)
	if n == 0 {
		n = 1
	}
	r.add("runtime.alloc_kb_per_iter", float64(s.alloc)/1024/n, iters, moves)
	r.add("runtime.mallocs_per_iter", float64(s.mallocs)/n, iters, moves)
	r.add("runtime.gc_per_iter", float64(s.gcs)/n, iters, moves)
	r.add("runtime.goroutines_peak", float64(s.goroutinesPeak), iters, "peak_rss_mb everywhere")
}

// waitMeans averages attrib's per-layer components over traced runs.
type waitMeans struct {
	sum map[string]float64
	n   int
}

func (w *waitMeans) add(rec *probe.SpanRecorder, warm int) {
	if w.sum == nil {
		w.sum = map[string]float64{}
	}
	for k, v := range layerWaits(attrib.Analyze(rec, 3), warm) {
		w.sum[k] += v
	}
	w.n++
}

func (w *waitMeans) get(name string) float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum[name] / float64(w.n)
}
