package ps

import (
	"errors"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

// The constructor and close paths of the sharded client and the mux
// worker: misconfiguration must fail loudly at construction, connection
// loss must fail a batch with a conn-flavored error instead of hanging,
// and Close must be idempotent.

func TestNewShardedLinksPanicsWithNoClients(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with zero links")
		}
	}()
	NewShardedLinks(nil, nil)
}

func TestNewShardedLinksPanicsWithoutKeyMap(t *testing.T) {
	groups := []*MuxGroup{
		NewMuxGroup(newSinkConn(), 1, MuxGroupOptions{}),
		NewMuxGroup(newSinkConn(), 1, MuxGroupOptions{}),
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: multiple shards need a key map")
		}
		for _, g := range groups {
			g.Close()
		}
	}()
	NewShardedLinks([]*MuxWorker{groups[0].Worker(0), groups[1].Worker(0)}, nil)
}

// TestShardedClientDoubleClose pins Close idempotency: the second Close
// must not panic, double-fail pending pulls, or touch the other workers'
// streams.
func TestShardedClientDoubleClose(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	sc := NewShardedLinks([]*MuxWorker{g.Worker(0)}, nil)
	if err := sc.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The sibling worker's stream is untouched by worker 0's close: the
	// group connection stays up until shutdown.
	if err := g.Worker(1).Push(0, 0, []float64{1}); err != nil {
		t.Fatalf("sibling worker push after double close: %v", err)
	}
	g.Worker(1).Close()
	shutdown() //nolint:errcheck — the server sees the torn-down conn
}

// TestMuxWorkerBatchAfterConnLoss: a PushPullBatch on a mux stream whose
// shared connection died must fail with a conn-flavored error — either at
// the write or on the delivered channels — never hang.
func TestMuxWorkerBatchAfterConnLoss(t *testing.T) {
	s := NewServer(2)
	a, b := transport.Pipe(0, 0)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeMux(b, []int{0, 1}) }()
	g := NewMuxGroup(a, 2, MuxGroupOptions{PullTimeout: 2 * time.Second})

	a.Close() // kill the shared connection under both workers
	<-serveErr

	link := g.Worker(0)
	var chans []<-chan PullResult
	err := link.PushPullBatch(0, []int{0},
		func(int) []float64 { return []float64{1} },
		func(_ int, ch <-chan PullResult) { chans = append(chans, ch) })
	if err == nil {
		// The demux loop may not have observed the loss at write time; the
		// pending pulls must then fail instead of waiting out the timeout.
		for _, ch := range chans {
			r := <-ch
			if r.Err == nil {
				t.Fatal("batch on dead connection delivered a result")
			}
			err = r.Err
		}
	}
	if err == nil {
		t.Fatal("batch on dead connection reported no error")
	}
	g.Close()
}

// TestMuxWorkerDoubleClose: worker-local Close is idempotent and fails the
// worker's pending pull exactly once with net.ErrClosed.
func TestMuxWorkerDoubleClose(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	link := g.Worker(0)
	ch, err := link.PullAsync(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := link.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	select {
	case r := <-ch:
		if !errors.Is(r.Err, net.ErrClosed) {
			t.Fatalf("pending pull failed with %v, want net.ErrClosed", r.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending pull not failed by Close")
	}
	if err := link.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := link.Push(0, 0, []float64{1}); err == nil {
		t.Fatal("push accepted after close")
	}
	g.Worker(1).Close()
	shutdown() //nolint:errcheck — remaining worker closed without pushing
}

// TestMuxGroupUnknownWorkerPanics: asking the group for a stream it never
// created is a programming error, not a recoverable condition.
func TestMuxGroupUnknownWorkerPanics(t *testing.T) {
	_, g, shutdown := newMuxCluster(t, 2)
	defer shutdown() //nolint:errcheck — conn torn down by Close
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown worker index")
		}
	}()
	g.Worker(5)
}
