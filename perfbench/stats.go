package main

import (
	"math"
	"sort"
	"time"

	"prophet/internal/probe/attrib"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile over fewer samples is set by one or two outliers.
const minTail = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) of xs, and
// whether at least minTail samples lie beyond it. q = 0.5 needs 2×minTail
// samples, q = 0.9 needs 10×minTail. xs is not modified.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // q*n may land a rounding error above a whole rank
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minTail
}

// median is the nearest-rank median, for metrics whose samples are whole
// runs (set-up times, per-episode rates) where the tail rule does not apply.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

// quota says when a sampling loop may stop: once budget is spent and it
// holds at least samples timing samples from at least runs calls into the
// program, or at the run's hard stop whatever it holds.
type quota struct {
	budget        time.Duration
	samples, runs int
}

// endToEndQuota gives p90 minTail samples beyond it and set-up a median
// over several calls.
func endToEndQuota(budget time.Duration) quota { return quota{budget, 10 * minTail, 5} }

func (q quota) met(start time.Time, samples, runs int) bool {
	return pastStop() || (time.Since(start) >= q.budget && samples >= q.samples && runs >= q.runs)
}

// setupSeconds is the part of one emu.Run call that is not a timed
// iteration: building pipes, servers and workers, the warm-up iterations
// (Prophet's FIFO profiling iteration among them) and teardown.
func setupSeconds(runWall time.Duration, iterTimes []time.Duration, warm int) float64 {
	s := runWall
	for _, d := range iterTimes[warm:] {
		s -= d
	}
	return s.Seconds()
}

// tally counts attempted and failed iterations. A run that errors, hangs
// or fails the correctness gate counts every iteration it attempted as
// failed.
type tally struct {
	attempted, failed int
}

func (t *tally) add(iters int, ok bool) {
	t.attempted += iters
	if !ok {
		t.failed += iters
	}
}

// failAll marks every attempted iteration failed: the run's outputs could
// not be trusted (a later gate failed).
func (t *tally) failAll() { t.failed = t.attempted }

func (t tally) errorRate() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failed) / float64(t.attempted)
}

// layerWaits maps attrib's five completion components onto the layers
// that own them, averaged in milliseconds over every gradient of every
// worker in iterations >= warm:
//
//	Generation    nn.generation_ms   backward compute until the gradient exists
//	PriorityWait  drive.prio_wait_ms held by the scheduler behind higher priority
//	BandwidthWait drive.bw_wait_ms   queued behind another message on its lane
//	Transmit      wire.transmit_ms   its own bytes on the wire
//	Ack           ps.ack_ms          aggregation and the pull response (0 on collectives)
func layerWaits(rep *attrib.Report, warm int) map[string]float64 {
	var sum attrib.Components
	n := 0
	for _, c := range rep.PerGrad {
		if c.Iter < warm {
			continue
		}
		sum.Generation += c.Generation
		sum.PriorityWait += c.PriorityWait
		sum.BandwidthWait += c.BandwidthWait
		sum.Transmit += c.Transmit
		sum.Ack += c.Ack
		n++
	}
	ms := func(v float64) float64 {
		if n == 0 {
			return 0
		}
		return 1e3 * v / float64(n)
	}
	return map[string]float64{
		"nn.generation_ms":   ms(sum.Generation),
		"drive.prio_wait_ms": ms(sum.PriorityWait),
		"drive.bw_wait_ms":   ms(sum.BandwidthWait),
		"wire.transmit_ms":   ms(sum.Transmit),
		"ps.ack_ms":          ms(sum.Ack),
	}
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
