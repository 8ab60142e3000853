package ps

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"prophet/internal/transport"
)

// sinkConn is a stand-in single-stream mux peer: written bytes vanish and
// are granted straight back as stream-0 credit, so a sender's write path
// runs at full speed with no server behind it. Reads block until there is
// credit to hand back or the conn closes.
type sinkConn struct {
	mu     sync.Mutex
	cond   *sync.Cond
	owed   int64 // written bytes not yet granted back
	closed bool
	hdr    [transport.MuxHeaderSize]byte // credit frame being read out
	hdrOff int                           // bytes of hdr already read
}

func newSinkConn() *sinkConn {
	c := &sinkConn{hdrOff: transport.MuxHeaderSize}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *sinkConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.hdrOff == len(c.hdr) && c.owed == 0 && !c.closed {
		c.cond.Wait()
	}
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.hdrOff == len(c.hdr) {
		// Stage a credit frame: stream 0, grant amount in the iter field.
		c.hdr = [transport.MuxHeaderSize]byte{}
		c.hdr[4] = byte(transport.Credit)
		binary.LittleEndian.PutUint32(c.hdr[5:9], uint32(c.owed))
		c.owed, c.hdrOff = 0, 0
	}
	n := copy(b, c.hdr[c.hdrOff:])
	c.hdrOff += n
	return n, nil
}

func (c *sinkConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.owed += int64(len(b))
	c.cond.Signal()
	return len(b), nil
}

func (c *sinkConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

func (c *sinkConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *sinkConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *sinkConn) SetDeadline(t time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(t time.Time) error { return nil }

// TestClientPushZeroAllocs pins the write-side hot-path contract: once the
// connection's batch scratch has grown, MuxWorker.Push encodes and flushes
// a gradient with zero allocations — credit reservation included.
func TestClientPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	g := NewMuxGroup(newSinkConn(), 1, MuxGroupOptions{})
	defer g.Close()
	c := g.Worker(0)
	data := make([]float64, 512)
	if err := c.Push(0, 0, data); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Push(1, 2, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Push allocated %v per call in steady state, want 0", allocs)
	}
}

// startPair wires one worker to a fresh server over its own connection.
func startPair(t *testing.T) (*Server, *MuxWorker) {
	t.Helper()
	s := NewServer(1)
	c := dialWorker(s, 0, MuxGroupOptions{}, nil)
	t.Cleanup(func() { c.shutdown() })
	return s, c.MuxWorker
}

// TestPushPullBatchRoundTrip drives a three-tensor batch through a real
// server: one buffered write carries all pushes and pull requests, and
// every pull resolves to the (single-worker) mean.
func TestPushPullBatchRoundTrip(t *testing.T) {
	_, c := startPair(t)
	tensors := []int{0, 1, 2}
	data := map[int][]float64{
		0: {1, 2, 3},
		1: {4},
		2: {5, 6},
	}
	chans := make(map[int]<-chan PullResult)
	err := c.PushPullBatch(3, tensors,
		func(tensor int) []float64 { return data[tensor] },
		func(tensor int, ch <-chan PullResult) { chans[tensor] = ch })
	if err != nil {
		t.Fatal(err)
	}
	if len(chans) != len(tensors) {
		t.Fatalf("res delivered %d channels, want %d", len(chans), len(tensors))
	}
	for _, tensor := range tensors {
		r := <-chans[tensor]
		if r.Err != nil {
			t.Fatalf("tensor %d: %v", tensor, r.Err)
		}
		want := data[tensor]
		if len(r.Data) != len(want) {
			t.Fatalf("tensor %d: got %v want %v", tensor, r.Data, want)
		}
		for i := range want {
			if r.Data[i] != want[i] {
				t.Fatalf("tensor %d: got %v want %v", tensor, r.Data, want)
			}
		}
		c.Recycle(r.Data)
	}
}

// TestPushPullBatchFailsAsUnit: a duplicate registration mid-batch must
// unwind every pull the batch registered, leaving the slots free.
func TestPushPullBatchFailsAsUnit(t *testing.T) {
	_, c := startPair(t)
	// Occupy (iter 1, tensor 1) so the batch's second registration dups.
	if _, err := c.PullAsync(1, 1); err != nil {
		t.Fatal(err)
	}
	err := c.PushPullBatch(1, []int{0, 1},
		func(tensor int) []float64 { return []float64{1} },
		func(tensor int, ch <-chan PullResult) {})
	if err == nil || !strings.Contains(err.Error(), "duplicate pull") {
		t.Fatalf("expected duplicate-pull error, got %v", err)
	}
	// Tensor 0's registration must have been rolled back.
	if _, err := c.PullAsync(1, 0); err != nil {
		t.Fatalf("batch failure leaked a registration: %v", err)
	}
}

// TestShardedBatchRejectsCrossShard: the sharded wrapper only batches
// same-destination tensors — one wire write goes to one shard.
func TestShardedBatchRejectsCrossShard(t *testing.T) {
	groups := []*MuxGroup{
		NewMuxGroup(newSinkConn(), 1, MuxGroupOptions{}),
		NewMuxGroup(newSinkConn(), 1, MuxGroupOptions{}),
	}
	sc := NewShardedLinks([]*MuxWorker{groups[0].Worker(0), groups[1].Worker(0)},
		func(tensor int) int { return tensor % 2 })
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	err := sc.PushPullBatch(0, []int{0, 1},
		func(tensor int) []float64 { return nil },
		func(tensor int, ch <-chan PullResult) {})
	if err == nil || !strings.Contains(err.Error(), "spans shards") {
		t.Fatalf("expected cross-shard rejection, got %v", err)
	}
	if err := sc.PushPullBatch(0, nil, nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestPushPullBatchConnLost: a dead connection fails the whole batch with
// ErrConnLost and deregisters everything.
func TestPushPullBatchConnLost(t *testing.T) {
	conn := newSinkConn()
	g := NewMuxGroup(conn, 1, MuxGroupOptions{})
	c := g.Worker(0)
	conn.Close()
	defer g.Close()
	// The read loop may need a moment to observe the close; the write
	// itself fails regardless.
	err := c.PushPullBatch(0, []int{0},
		func(tensor int) []float64 { return []float64{1} },
		func(tensor int, ch <-chan PullResult) {})
	if err == nil {
		t.Fatal("expected failure on closed conn")
	}
	if !errors.Is(err, ErrConnLost) && !strings.Contains(err.Error(), "connection lost") {
		t.Fatalf("want conn-lost flavored error, got %v", err)
	}
}
