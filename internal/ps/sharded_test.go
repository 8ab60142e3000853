package ps

import (
	"sync"
	"testing"
)

// newShardedCluster spins up one server per shard and W sharded clients
// routing tensor t to shard t % shards, each worker×shard pair on its own
// connection.
func newShardedCluster(t *testing.T, workers, shards int) ([]*Server, []*ShardedClient, func()) {
	t.Helper()
	of := func(tensor int) int { return tensor % shards }
	servers := make([]*Server, shards)
	var all []*link
	links := make([][]*MuxWorker, workers)
	for w := range links {
		links[w] = make([]*MuxWorker, shards)
	}
	for s := range servers {
		servers[s] = NewServer(workers)
		for w := 0; w < workers; w++ {
			l := dialWorker(servers[s], w, MuxGroupOptions{}, nil)
			links[w][s] = l.MuxWorker
			all = append(all, l)
		}
	}
	clients := make([]*ShardedClient, workers)
	for w := range clients {
		clients[w] = NewShardedLinks(links[w], of)
	}
	cleanup := func() {
		for _, l := range all {
			if err := l.shutdown(); err != nil {
				t.Errorf("serve: %v", err)
			}
		}
	}
	return servers, clients, cleanup
}

func TestShardedPushPullAggregates(t *testing.T) {
	const workers, shards, tensors = 3, 2, 5
	servers, clients, cleanup := newShardedCluster(t, workers, shards)
	defer cleanup()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tn := 0; tn < tensors; tn++ {
				if err := clients[w].Push(0, tn, []float64{float64(w + tn)}); err != nil {
					t.Errorf("worker %d push %d: %v", w, tn, err)
					return
				}
			}
			for tn := 0; tn < tensors; tn++ {
				got, err := clients[w].Pull(0, tn)
				if err != nil {
					t.Errorf("worker %d pull %d: %v", w, tn, err)
					return
				}
				want := (float64(0+tn) + float64(1+tn) + float64(2+tn)) / workers
				if len(got) != 1 || got[0] != want {
					t.Errorf("worker %d tensor %d: got %v want %v", w, tn, got, want)
				}
			}
		}(w)
	}
	wg.Wait()

	// Routing: shard s saw exactly the pushes for tensors with t%shards==s.
	wantPushes := []int{3 * workers, 2 * workers} // tensors 0,2,4 vs 1,3
	for s, srv := range servers {
		pushes, _ := srv.Stats()
		if pushes != wantPushes[s] {
			t.Errorf("shard %d handled %d pushes, want %d", s, pushes, wantPushes[s])
		}
	}
}

func TestShardedClientSingleShardNeedsNoMap(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	sc := NewShardedLinks([]*MuxWorker{clients[0].MuxWorker}, nil)
	if err := sc.Push(0, 7, []float64{4}); err != nil {
		t.Fatal(err)
	}
	got, err := sc.Pull(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestShardedClientRejectsBadMap(t *testing.T) {
	_, clients, cleanup := newCluster(t, 1)
	defer cleanup()
	sc := NewShardedLinks([]*MuxWorker{clients[0].MuxWorker}, func(int) int { return 3 })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range shard")
		}
	}()
	sc.Push(0, 0, []float64{1})
}
