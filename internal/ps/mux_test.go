package ps

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"prophet/internal/transport"
)

// newMuxCluster starts a server with `workers` logical workers behind ONE
// multiplexed connection and returns the client group plus a shutdown
// func that reports ServeMux's error.
func newMuxCluster(t *testing.T, workers int) (*Server, *MuxGroup, func() error) {
	t.Helper()
	s := NewServer(workers)
	a, b := transport.Pipe(0, 0)
	ids := make([]int, workers)
	for w := range ids {
		ids[w] = w
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeMux(b, ids) }()
	g := NewMuxGroup(a, workers, MuxGroupOptions{PullTimeout: 5 * time.Second})
	return s, g, func() error {
		g.Close()
		return <-serveErr
	}
}

func TestMuxPushPullAggregates(t *testing.T) {
	const workers = 3
	_, g, shutdown := newMuxCluster(t, workers)

	var wg sync.WaitGroup
	results := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			link := g.Worker(w)
			if err := link.Push(0, 0, []float64{float64(w), 2 * float64(w)}); err != nil {
				t.Errorf("worker %d push: %v", w, err)
				return
			}
			data, err := link.Pull(0, 0)
			if err != nil {
				t.Errorf("worker %d pull: %v", w, err)
				return
			}
			results[w] = data
		}(w)
	}
	wg.Wait()
	want := []float64{1, 2} // mean of {0,1,2} and {0,2,4}
	for w, got := range results {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("worker %d got %v, want %v", w, got, want)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestMuxPushPullBatchInterleaved(t *testing.T) {
	const workers, tensors, iters = 4, 3, 5
	_, g, shutdown := newMuxCluster(t, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			link := g.Worker(w)
			idx := []int{0, 1, 2}
			for it := 0; it < iters; it++ {
				chans := make([]<-chan PullResult, tensors)
				err := link.PushPullBatch(it, idx,
					func(tr int) []float64 { return []float64{float64(w + tr + it)} },
					func(tr int, ch <-chan PullResult) { chans[tr] = ch })
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, it, err)
					return
				}
				for tr, ch := range chans {
					r := <-ch
					if r.Err != nil {
						t.Errorf("worker %d iter %d tensor %d: %v", w, it, tr, r.Err)
						return
					}
					// mean over w of (w + tr + it) = 1.5 + tr + it
					if want := 1.5 + float64(tr+it); r.Data[0] != want {
						t.Errorf("worker %d iter %d tensor %d: got %v want %v", w, it, tr, r.Data[0], want)
					}
					link.Recycle(r.Data)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := shutdown(); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestMuxGoroutineBudget pins the scaling property the mux exists for: the
// goroutine cost of a cluster is per-connection, not per-worker — a 32×
// worker increase adds zero goroutines.
func TestMuxGoroutineBudget(t *testing.T) {
	measure := func(workers int) int {
		before := settledGoroutines(t)
		_, g, shutdown := newMuxCluster(t, workers)
		// One round so everything is spun up.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				link := g.Worker(w)
				link.Push(0, 0, []float64{1})
				if data, err := link.Pull(0, 0); err == nil {
					link.Recycle(data)
				}
			}(w)
		}
		wg.Wait()
		during := settledGoroutines(t) - before
		if err := shutdown(); err != nil {
			t.Fatalf("serve (%d workers): %v", workers, err)
		}
		return during
	}
	small, big := measure(2), measure(64)
	if big > small {
		t.Fatalf("goroutines grew with workers: %d at W=2, %d at W=64", small, big)
	}
	// Two per side per physical conn: demux + responder (server), demux +
	// granter (client), plus the ServeMux caller itself.
	if small > 5 {
		t.Fatalf("mux cluster costs %d goroutines, want ≤ 5", small)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 20ms: goroutines that have signalled completion (a WaitGroup's Done,
// a closed MuxGroup's credit granter) may still be unwinding.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for stable := time.Now(); time.Since(stable) < 20*time.Millisecond; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (%d)", n)
		}
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, time.Now()
		}
	}
	return n
}

func TestMuxGroupCloseFailsPending(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	// Worker 0 pulls a slot that can never aggregate (worker 1 never
	// pushes), then the group closes underneath it.
	link := g.Worker(0)
	if err := link.Push(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	ch, err := link.PullAsync(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = shutdown() // closes the conn with the pull in flight
	select {
	case r := <-ch:
		if r.Err == nil {
			t.Fatal("pending pull resolved without error across close")
		}
		if !errors.Is(r.Err, ErrConnLost) {
			t.Fatalf("pending pull failed with %v, want ErrConnLost", r.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending pull hung across close")
	}
	if _, err := link.PullAsync(0, 1); err == nil {
		t.Fatal("pull after close succeeded")
	}
}

// TestMuxConnLossUnblocksCreditWaiters pins the abort path: a sender
// parked in a credit reservation only wakes on close or an incoming
// grant, so when the connection dies the group's readLoop must close the
// mux — otherwise a worker blocked mid-push hangs forever (emu.Run's
// abort closes raw conns and then waits for every worker).
func TestMuxConnLossUnblocksCreditWaiters(t *testing.T) {
	a, b := transport.Pipe(0, 0)
	g := NewMuxGroup(a, 1, MuxGroupOptions{})
	defer g.Close()
	// The peer drains bytes but never grants credit back.
	drained := make(chan struct{})
	go func() { defer close(drained); io.Copy(io.Discard, b) }()

	link := g.Worker(0)
	payload := make([]float64, 8<<10) // 65553 wire bytes per push
	// Three pushes leave the 256 KiB stream window short of a fourth.
	for i := 0; i < 3; i++ {
		if err := link.Push(0, i, payload); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- link.Push(1, 0, payload) }()
	select {
	case err := <-blocked:
		t.Fatalf("push did not block on exhausted credit (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}

	b.Close() // the connection dies while the sender waits for credit
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("credit-blocked push succeeded after connection loss")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("credit-blocked sender hung after connection loss")
	}
	<-drained
	// New traffic is rejected, not blocked.
	if _, err := link.PullAsync(2, 0); err == nil {
		t.Fatal("pull after connection loss succeeded")
	}
}

func TestMuxWorkerCloseIsLocal(t *testing.T) {
	s, g, shutdown := newMuxCluster(t, 2)
	if err := g.Worker(0).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Worker(0).PullAsync(0, 0); err == nil {
		t.Fatal("closed worker accepted a pull")
	}
	// The sibling's stream is untouched: once the server drops worker 0
	// from the barrier, worker 1 trains on alone over the same conn.
	s.DropWorker(0)
	link := g.Worker(1)
	if err := link.Push(0, 0, []float64{3}); err != nil {
		t.Fatal(err)
	}
	data, err := link.Pull(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 3 {
		t.Fatalf("solo mean %v, want 3", data[0])
	}
	link.Recycle(data)
	if err := shutdown(); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func TestMuxProtocolErrorAttributedToWorker(t *testing.T) {
	s, g, shutdown := newMuxCluster(t, 2)
	link := g.Worker(1)
	if err := link.Push(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Second push of the same tensor: a protocol violation by worker 1.
	if err := link.Push(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	err := shutdown()
	var we *WorkerError
	if !errors.As(err, &we) || we.Worker != 1 {
		t.Fatalf("serve error %v, want WorkerError for worker 1", err)
	}
	if s.IsDropped(1) {
		t.Fatal("protocol violation should fail, not drop, the worker")
	}
}

func TestMuxDropWorkerRenormalizes(t *testing.T) {
	s, g, shutdown := newMuxCluster(t, 3)
	// Workers 0 and 1 push; 2 never does. Dropping 2 aggregates over the
	// survivors with a renormalized mean.
	for w := 0; w < 2; w++ {
		if err := g.Worker(w).Push(0, 0, []float64{float64(w + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := g.Worker(0).PullAsync(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.DropWorker(2)
	select {
	case r := <-ch:
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if want := 1.5; r.Data[0] != want {
			t.Fatalf("renormalized mean %v, want %v", r.Data[0], want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull hung after DropWorker")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestMuxShardedLinks runs the sharded client over mux groups: one shared
// connection per shard, every in-process worker a stream on each.
func TestMuxShardedLinks(t *testing.T) {
	const workers, shards = 3, 2
	servers := make([]*Server, shards)
	groups := make([]*MuxGroup, shards)
	serveErr := make(chan error, shards)
	ids := []int{0, 1, 2}
	for sh := 0; sh < shards; sh++ {
		servers[sh] = NewServer(workers)
		a, b := transport.Pipe(0, 0)
		srv := servers[sh]
		go func() { serveErr <- srv.ServeMux(b, ids) }()
		groups[sh] = NewMuxGroup(a, workers, MuxGroupOptions{PullTimeout: 5 * time.Second})
	}
	of := func(tensor int) int { return tensor % shards }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			links := make([]*MuxWorker, shards)
			for sh := range links {
				links[sh] = groups[sh].Worker(w)
			}
			sc := NewShardedLinks(links, of)
			for tr := 0; tr < 4; tr++ {
				if err := sc.Push(0, tr, []float64{float64(w * tr)}); err != nil {
					t.Errorf("worker %d tensor %d: %v", w, tr, err)
					return
				}
			}
			for tr := 0; tr < 4; tr++ {
				data, err := sc.Pull(0, tr)
				if err != nil {
					t.Errorf("worker %d tensor %d: %v", w, tr, err)
					return
				}
				if want := float64(tr); data[0] != want { // mean of {0,tr,2tr}
					t.Errorf("worker %d tensor %d: got %v want %v", w, tr, data[0], want)
				}
				sc.Recycle(data)
			}
		}(w)
	}
	wg.Wait()
	for _, g := range groups {
		g.Close()
	}
	for range groups {
		if err := <-serveErr; err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	for sh, srv := range servers {
		pushes, pulls := srv.Stats()
		if pushes != workers*2 || pulls != workers*2 {
			t.Fatalf("shard %d stats: %d pushes %d pulls, want %d each", sh, pushes, pulls, workers*2)
		}
	}
}
