package ps

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"prophet/internal/fault"
	"prophet/internal/transport"
)

// TestCorruptResponseFailsWaiter pins the readLoop bugfix: a pull response
// whose payload fails DecodeFloats must fail the matching waiter instead of
// silently stranding it forever.
func TestCorruptResponseFailsWaiter(t *testing.T) {
	a, b := net.Pipe()
	g := NewMuxGroup(a, 1, MuxGroupOptions{})
	c := g.Worker(0)
	defer g.Close()
	peer := transport.NewMuxConn(b, transport.MuxOptions{Streams: 1})
	defer peer.Close()
	go func() {
		// Act as the server: consume the pull request, answer with a
		// 5-byte payload (not a multiple of 8), then keep reading so the
		// client's credit grants never block.
		stream, f, err := peer.Read()
		if err != nil {
			t.Error(err)
			return
		}
		peer.Done(stream, f)
		peer.SendFrame(0, &transport.Frame{
			Type: transport.PullResp, Iter: 0, Tensor: 7, Payload: []byte{1, 2, 3, 4, 5},
		})
		for {
			stream, f, err := peer.Read()
			if err != nil {
				return
			}
			peer.Done(stream, f)
		}
	}()
	ch, err := c.PullAsync(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-ch:
		if r.Err == nil {
			t.Fatalf("corrupt response delivered data %v, want error", r.Data)
		}
		if !strings.Contains(r.Err.Error(), "pull response") {
			t.Fatalf("error %q does not describe the decode failure", r.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded: corrupt response never failed the pull")
	}
}

// TestLatePullIsProtocolError pins the slot-GC bugfix: a pull that arrives
// after the slot was served to every worker and garbage-collected must be
// rejected as a protocol error, not recreate an empty slot that queues the
// pull forever.
func TestLatePullIsProtocolError(t *testing.T) {
	srv := NewServer(1)
	c := dialWorker(srv, 0, MuxGroupOptions{}, nil)

	if err := c.Push(0, 0, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull(0, 0); err != nil {
		t.Fatal(err) // first pull: served and slot GC'd
	}
	// The duplicate pull must fail — the server kills the connection with a
	// protocol error, which reaches the client as a lost connection.
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("late pull succeeded, want protocol error")
	}
	err := <-c.served
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("ServeMux = %v, want already-served protocol error", err)
	}
	c.g.Close()
}

// TestDropWorkerRenormalizesMean: dropping a silent worker completes the
// slot over the survivors, with the mean divided by the live count.
func TestDropWorkerRenormalizesMean(t *testing.T) {
	srv, clients, cleanup := newCluster(t, 3)
	defer cleanup()
	if err := clients[0].Push(0, 0, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := clients[2].Push(0, 0, []float64{6}); err != nil {
		t.Fatal(err)
	}
	got := make(chan PullResult, 2)
	for _, w := range []int{0, 2} {
		ch, err := clients[w].PullAsync(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		go func() { got <- <-ch }()
	}
	srv.DropWorker(1) // worker 1 never pushed
	for i := 0; i < 2; i++ {
		r := <-got
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if math.Abs(r.Data[0]-4.5) > 1e-15 {
			t.Fatalf("mean = %v, want (3+6)/2 = 4.5", r.Data[0])
		}
	}
	if !srv.IsDropped(1) || len(srv.Dropped()) != 1 {
		t.Fatalf("dropped = %v, want [1]", srv.Dropped())
	}
}

// TestStragglerPolicyDropsSilentWorker: with a straggler policy configured,
// a worker that never contributes to a slot others are waiting on is
// detected and dropped without any explicit DropWorker call.
func TestStragglerPolicyDropsSilentWorker(t *testing.T) {
	srv := NewServer(2)
	var decided struct {
		sync.Mutex
		missing []int
	}
	srv.SetStragglerPolicy(30*time.Millisecond, func(iter, tensor int, missing []int) bool {
		decided.Lock()
		decided.missing = append([]int(nil), missing...)
		decided.Unlock()
		return true
	})
	clients := []*link{
		dialWorker(srv, 0, MuxGroupOptions{}, nil),
		dialWorker(srv, 1, MuxGroupOptions{}, nil),
	}

	if err := clients[0].Push(3, 1, []float64{8}); err != nil {
		t.Fatal(err)
	}
	got, err := clients[0].Pull(3, 1) // parks; straggler timer fires
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-8) > 1e-15 {
		t.Fatalf("renormalized mean = %v, want 8/1", got[0])
	}
	decided.Lock()
	missing := decided.missing
	decided.Unlock()
	if len(missing) != 1 || missing[0] != 1 {
		t.Fatalf("policy saw missing %v, want [1]", missing)
	}
	if !srv.IsDropped(1) {
		t.Fatal("straggler not dropped")
	}
	for _, c := range clients {
		if err := c.shutdown(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestStragglerTimerDisarmedAfterServe: once the last ServeMux returns, a
// slot's armed straggler timer must not fire the policy callback — the
// caller has torn the run down and reads its results.
func TestStragglerTimerDisarmedAfterServe(t *testing.T) {
	srv := NewServer(2)
	fired := make(chan struct{}, 1)
	const timeout = 200 * time.Millisecond
	srv.SetStragglerPolicy(timeout, func(iter, tensor int, missing []int) bool {
		fired <- struct{}{}
		return false
	})
	clients := []*link{
		dialWorker(srv, 0, MuxGroupOptions{}, nil),
		dialWorker(srv, 1, MuxGroupOptions{}, nil),
	}
	if err := clients[0].Push(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].PullAsync(0, 0); err != nil {
		t.Fatal(err)
	}
	// Wait until the pull is parked (arming the timer), then shut down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, pulls := srv.Stats(); pulls == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pull never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	for _, c := range clients {
		if err := c.shutdown(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	select {
	case <-fired:
		t.Fatal("straggler policy fired after every connection closed")
	case <-time.After(2 * timeout):
	}
}

// TestPullTimeout: a pull whose slot never completes fails with
// ErrPullTimeout instead of hanging.
func TestPullTimeout(t *testing.T) {
	srv := NewServer(2)
	clients := make([]*link, 2)
	for w := range clients {
		clients[w] = dialWorker(srv, w, MuxGroupOptions{PullTimeout: 40 * time.Millisecond}, nil)
	}

	clients[0].Push(0, 0, []float64{1}) // worker 1 never pushes
	_, err := clients[0].Pull(0, 0)
	if !errors.Is(err, ErrPullTimeout) {
		t.Fatalf("err = %v, want ErrPullTimeout", err)
	}
	for _, c := range clients {
		if err := c.shutdown(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}
}

// TestOnWorkerFailureSeesCorruptFrame: a corrupted push payload surfaces
// through the per-worker failure callback and ServeMux's return value
// instead of being treated as a clean shutdown.
func TestOnWorkerFailureSeesCorruptFrame(t *testing.T) {
	srv := NewServer(1)
	failures := make(chan error, 1)
	srv.OnWorkerFailure(func(w int, err error) {
		if w != 0 {
			t.Errorf("failure attributed to worker %d", w)
		}
		failures <- err
	})
	// Flip the high byte of the 17-byte tagged header's length prefix
	// (offset 16): the announced payload balloons past MaxPayload and the
	// server rejects the frame outright — a deterministic framing error.
	c := dialWorker(srv, 0, MuxGroupOptions{}, fault.CorruptAt(16).Wrap)

	// A huge corrupted length prefix makes the server reject the frame.
	c.Push(0, 0, make([]float64, 64))
	select {
	case err := <-failures:
		if err == nil {
			t.Fatal("nil failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("corrupt frame never surfaced as a worker failure")
	}
	if err := c.shutdown(); err == nil {
		t.Fatal("ServeMux = nil, want worker error for corrupt frame")
	} else {
		var we *WorkerError
		if !errors.As(err, &we) || we.Worker != 0 {
			t.Fatalf("ServeMux = %v, want *WorkerError for worker 0", err)
		}
	}
}

// TestInjectedDropSurfacesNotHangs: a connection dropped mid-frame by the
// fault injector produces a descriptive failure on both sides — the pull
// errors out and ServeMux attributes the failure — never a hang.
func TestInjectedDropSurfacesNotHangs(t *testing.T) {
	srv := NewServer(1)
	// 64 floats = 512-byte payload + 17-byte tagged header; drop mid-payload.
	c := dialWorker(srv, 0, MuxGroupOptions{PullTimeout: 2 * time.Second}, fault.DropAt(100).Wrap)

	if err := c.Push(0, 0, make([]float64, 64)); !errors.Is(err, fault.ErrInjectedDrop) {
		t.Fatalf("push err = %v, want ErrInjectedDrop", err)
	}
	if _, err := c.Pull(0, 0); err == nil {
		t.Fatal("pull on dropped connection succeeded")
	}
	err := c.shutdown()
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("ServeMux = %v, want *WorkerError (mid-frame cut is not a clean close)", err)
	}
}

// TestStallDelaysButCompletes: a transient stall shorter than the pull
// timeout delays the round trip without failing it.
func TestStallDelaysButCompletes(t *testing.T) {
	srv := NewServer(1)
	const stall = 60 * time.Millisecond
	// Offset 20 lies inside the first push frame (17-byte header + 24).
	c := dialWorker(srv, 0, MuxGroupOptions{PullTimeout: 5 * time.Second}, fault.StallAt(20, stall).Wrap)

	start := time.Now()
	if err := c.Push(0, 0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Pull(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("round trip %v beat the %v stall", elapsed, stall)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	if err := c.shutdown(); err != nil {
		t.Errorf("serve: %v", err)
	}
}
