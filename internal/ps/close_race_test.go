package ps

import (
	"errors"
	"net"
	"testing"
	"time"

	"prophet/internal/transport"
)

// TestCloseDuringInflightPullFailsWaiter pins the Close/readLoop shutdown
// ordering: a group Close racing an in-flight pull must deterministically
// fail the waiter — never strand it, never let it observe a half-closed
// connection.
func TestCloseDuringInflightPullFailsWaiter(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	for i := 0; i < rounds; i++ {
		a, b := transport.Pipe(0, 0)
		// Server half: drain frames, never respond — the pull stays in
		// flight until the close resolves it.
		go func() {
			peer := transport.NewMuxConn(b, transport.MuxOptions{Streams: 1, Pool: payloads})
			for {
				stream, f, err := peer.Read()
				if err != nil {
					return
				}
				peer.Done(stream, f)
			}
		}()
		g := NewMuxGroup(a, 1, MuxGroupOptions{})
		c := g.Worker(0)

		type pulled struct {
			ch  <-chan PullResult
			err error
		}
		started := make(chan pulled, 1)
		go func() {
			ch, err := c.PullAsync(0, 0)
			started <- pulled{ch, err}
		}()
		go g.Close()

		p := <-started
		if p.err != nil {
			// Close won the race outright: the pull must have failed with
			// a closed-or-lost error, not something else.
			if !errors.Is(p.err, net.ErrClosed) && !errors.Is(p.err, ErrConnLost) {
				t.Fatalf("round %d: pull rejected with %v", i, p.err)
			}
			b.Close()
			continue
		}
		select {
		case r := <-p.ch:
			if r.Err == nil {
				t.Fatalf("round %d: in-flight pull resolved without error across Close", i)
			}
			if !errors.Is(r.Err, ErrConnLost) {
				t.Fatalf("round %d: in-flight pull failed with %v, want ErrConnLost", i, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: in-flight pull stranded by Close", i)
		}
		b.Close()
	}
}
