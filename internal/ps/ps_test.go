package ps

import (
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"prophet/internal/transport"
)

// link is one worker's dedicated connection: a single-stream MuxGroup on
// the client end, the server's ServeMux on the other.
type link struct {
	*MuxWorker
	g      *MuxGroup
	served chan error // ServeMux's result, delivered once the conn closes
}

// dialWorker serves worker w of srv on its own single-stream ServeMux
// connection — the per-worker wire emu.Run builds when Mux is off. wrap,
// when non-nil, wraps the client end (fault injection).
func dialWorker(srv *Server, w int, opts MuxGroupOptions, wrap func(net.Conn) net.Conn) *link {
	a, b := transport.Pipe(0, 0)
	if wrap != nil {
		a = wrap(a)
	}
	l := &link{served: make(chan error, 1)}
	go func() { l.served <- srv.ServeMux(b, []int{w}) }()
	l.g = NewMuxGroup(a, 1, opts)
	l.MuxWorker = l.g.Worker(0)
	return l
}

// shutdown closes the connection and returns ServeMux's error.
func (l *link) shutdown() error {
	l.g.Close()
	return <-l.served
}

// newCluster spins up a server plus W workers, each on its own connection.
func newCluster(t *testing.T, workers int) (*Server, []*link, func()) {
	t.Helper()
	srv := NewServer(workers)
	clients := make([]*link, workers)
	for w := range clients {
		clients[w] = dialWorker(srv, w, MuxGroupOptions{}, nil)
	}
	cleanup := func() {
		for _, c := range clients {
			if err := c.shutdown(); err != nil {
				t.Errorf("serve: %v", err)
			}
		}
	}
	return srv, clients, cleanup
}

func TestPushPullSingleWorker(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	if err := clients[0].Push(0, 5, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := clients[0].Pull(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestAggregationIsMean(t *testing.T) {
	_, clients, cleanup := newCluster(t, 3)
	defer cleanup()
	var wg sync.WaitGroup
	for w, v := range []float64{1, 2, 6} {
		wg.Add(1)
		go func(w int, v float64) {
			defer wg.Done()
			if err := clients[w].Push(0, 0, []float64{v}); err != nil {
				t.Error(err)
			}
		}(w, v)
	}
	wg.Wait()
	got, err := clients[0].Pull(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-15 {
		t.Fatalf("mean = %v, want 3", got[0])
	}
}

func TestPullBlocksUntilAllPushed(t *testing.T) {
	_, clients, cleanup := newCluster(t, 2)
	defer cleanup()
	if err := clients[0].Push(0, 0, []float64{10}); err != nil {
		t.Fatal(err)
	}
	got := make(chan []float64, 1)
	go func() {
		v, err := clients[0].Pull(0, 0)
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	select {
	case <-got:
		t.Fatal("pull completed before all workers pushed")
	default:
	}
	if err := clients[1].Push(0, 0, []float64{20}); err != nil {
		t.Fatal(err)
	}
	v := <-got
	if v[0] != 15 {
		t.Fatalf("got %v", v)
	}
}

func TestIterationsAreIndependent(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	clients[0].Push(0, 0, []float64{1})
	clients[0].Push(1, 0, []float64{2})
	v0, _ := clients[0].Pull(0, 0)
	v1, _ := clients[0].Pull(1, 0)
	if v0[0] != 1 || v1[0] != 2 {
		t.Fatalf("v0=%v v1=%v", v0, v1)
	}
}

func TestManyTensorsConcurrently(t *testing.T) {
	const workers = 3
	const tensors = 20
	_, clients, cleanup := newCluster(t, workers)
	defer cleanup()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tix := 0; tix < tensors; tix++ {
				if err := clients[w].Push(0, tix, []float64{float64(tix), float64(w)}); err != nil {
					t.Error(err)
					return
				}
			}
			for tix := tensors - 1; tix >= 0; tix-- {
				v, err := clients[w].Pull(0, tix)
				if err != nil {
					t.Error(err)
					return
				}
				if v[0] != float64(tix) || v[1] != 1 { // mean of 0,1,2
					t.Errorf("tensor %d = %v", tix, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDeterministicAggregationOrder(t *testing.T) {
	// Floating-point sums depend on order; the server must sum in worker
	// order, so adversarial arrival orders give identical bits.
	vals := []float64{1e-16, 1.0, -1.0}
	run := func(order []int) float64 {
		_, clients, cleanup := newCluster(t, 3)
		defer cleanup()
		for _, w := range order {
			if err := clients[w].Push(0, 0, []float64{vals[w]}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := clients[0].Pull(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v[0]
	}
	a := run([]int{0, 1, 2})
	b := run([]int{2, 1, 0})
	if a != b {
		t.Fatalf("aggregation depends on arrival order: %v vs %v", a, b)
	}
}

func TestDoublePushRejected(t *testing.T) {
	srv := NewServer(1)
	client := dialWorker(srv, 0, MuxGroupOptions{}, nil)
	client.Push(0, 0, []float64{1})
	client.Push(0, 0, []float64{2})
	err := <-client.served
	if err == nil {
		t.Fatal("double push not rejected")
	}
	client.g.Close()
}

func TestServerStats(t *testing.T) {
	srv, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	clients[0].Push(0, 0, []float64{1})
	if _, err := clients[0].Pull(0, 0); err != nil {
		t.Fatal(err)
	}
	pushes, pulls := srv.Stats()
	if pushes != 1 || pulls != 1 {
		t.Fatalf("stats = %d, %d", pushes, pulls)
	}
}

func TestServeMuxRejectsBadIDs(t *testing.T) {
	srv := NewServer(2)
	for _, ids := range [][]int{nil, {2}, {-1}} {
		a, b := transport.Pipe(0, 0)
		if err := srv.ServeMux(b, ids); err == nil {
			t.Fatalf("ServeMux(%v) accepted", ids)
		}
		a.Close()
		b.Close()
	}
}

func TestNewServerZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewServer(0)
}

func TestDuplicatePullRejected(t *testing.T) {
	// No server: the far end just discards, so the first pull stays
	// pending and the second must be rejected as a duplicate.
	a, b := transport.Pipe(0, 0)
	go io.Copy(io.Discard, b)
	g := NewMuxGroup(a, 1, MuxGroupOptions{})
	c := g.Worker(0)
	go c.Pull(0, 0) // parks forever; released by Close below
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first pull never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("duplicate pull not rejected")
	}
	g.Close()
	b.Close()
}
