package ps

import (
	"net"
	"testing"
)

// benchGrad is one tensor's gradient for the round-trip benches.
var benchGrad = func() []float64 {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}()

// BenchmarkPS_PushPull measures a full single-worker round trip over a
// single-stream mux connection on an in-memory pipe — push, pull request,
// aggregate, response, decode — with the pulled buffer recycled each
// iteration.
func BenchmarkPS_PushPull(b *testing.B) {
	s := NewServer(1)
	sc, cc := net.Pipe()
	go s.ServeMux(sc, []int{0})
	g := NewMuxGroup(cc, 1, MuxGroupOptions{})
	defer g.Close()
	c := g.Worker(0)
	b.SetBytes(int64(2 * 8 * len(benchGrad)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Push(i, 0, benchGrad); err != nil {
			b.Fatal(err)
		}
		ch, err := c.PullAsync(i, 0)
		if err != nil {
			b.Fatal(err)
		}
		r := <-ch
		if r.Err != nil {
			b.Fatal(r.Err)
		}
		c.Recycle(r.Data)
	}
}

// BenchmarkPS_PushPullBatch8 is the batched form: eight tensors' pushes
// and pull requests leave in one buffered write per iteration.
func BenchmarkPS_PushPullBatch8(b *testing.B) {
	const nt = 8
	s := NewServer(1)
	sc, cc := net.Pipe()
	go s.ServeMux(sc, []int{0})
	g := NewMuxGroup(cc, 1, MuxGroupOptions{})
	defer g.Close()
	c := g.Worker(0)
	tensors := make([]int, nt)
	for t := range tensors {
		tensors[t] = t
	}
	chans := make([]<-chan PullResult, nt)
	grad := func(tensor int) []float64 { return benchGrad }
	res := func(tensor int, ch <-chan PullResult) { chans[tensor] = ch }
	b.SetBytes(int64(nt * 2 * 8 * len(benchGrad)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.PushPullBatch(i, tensors, grad, res); err != nil {
			b.Fatal(err)
		}
		for _, ch := range chans {
			r := <-ch
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			c.Recycle(r.Data)
		}
	}
}
