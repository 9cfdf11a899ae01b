package cache

import (
	"math/rand"
	"testing"

	"slimstore/internal/container"
)

// aliasScenario builds 12 containers of eight 4 KiB chunks and a restore
// sequence over `picks` chunks of each, `rounds` times over in a shuffled
// order, so chunks are referenced again and the caches have something to
// keep, demote, drop and reread.
func aliasScenario(t *testing.T, picks []int, rounds int) (*testRepo, []Request) {
	r := newTestRepo(t, 64<<10)
	var chosen [][]byte
	for c := 0; c < 12; c++ {
		var ps [][]byte
		for i := 0; i < 8; i++ {
			ps = append(ps, payload(5000+c*10+i, 4096))
		}
		r.addContainer(ps...)
		for _, i := range picks {
			chosen = append(chosen, ps[i])
		}
	}
	rnd := rand.New(rand.NewSource(7))
	var seq []Request
	for round := 0; round < rounds; round++ {
		for _, k := range rnd.Perm(len(chosen)) {
			seq = append(seq, r.request(chosen[k]))
		}
	}
	return r, seq
}

// TestAliasKeepsAccounting pins what the job caches promise now that they
// keep sub-slices of the fetched container instead of copies. Accounting is
// in chunk bytes and bit-identical to the copying caches: parentStats was
// recorded at the commit before the caches stopped copying, under budgets
// tight enough to demote, drop and reread, for all four policies. And no
// policy copies a chunk on its way out: every slice it emits — straight
// from a fetch, from FV's memory layer, promoted back from FV's spill
// layer, from ALACC's chunk cache — is that chunk's place in a container
// the fetcher returned. (What the budgets no longer do is cap the memory
// those containers occupy: Config.)
func TestAliasKeepsAccounting(t *testing.T) {
	cfg := Config{MemBytes: 40 << 10, DiskBytes: 48 << 10, LAW: 8}
	run := func(name, which string, repo *testRepo, seq []Request, want Stats) {
		p, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fetched := make(map[container.ID][]*container.Container)
		fetch := func(id container.ID) (*container.Container, error) {
			c, err := repo.cs.Read(id)
			fetched[id] = append(fetched[id], c)
			return c, err
		}
		step := 0
		got, err := p.Restore(seq, fetch, func(d []byte) error {
			req := &seq[step]
			view := false
			for _, c := range fetched[req.Container] {
				if cm := c.Meta.Find(req.FP); cm != nil && &d[0] == &c.Data[cm.Offset] {
					view = true
				}
			}
			if !view {
				t.Fatalf("%s, %s: step %d emits a copy of chunk %s, not its place in a fetched container",
					name, which, step, req.FP.Short())
			}
			step++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s, %s: stats moved\n got %+v\nwant %+v", name, which, got, want)
		}
	}
	repo, seq := aliasScenario(t, []int{0, 3, 5}, 3)
	denseRepo, denseSeq := aliasScenario(t, []int{0, 1, 2, 3, 4, 5, 6, 7}, 2)
	for name, want := range parentStats {
		run(name, "fragmented", repo, seq, want.fragmented)
		run(name, "dense", denseRepo, denseSeq, want.dense)
	}
	if parentStats["fv"].fragmented.DiskHits == 0 || parentStats["alacc"].fragmented.MemHits == 0 {
		t.Fatal("scenario no longer exercises FV's spill promotion and ALACC's chunk cache")
	}
}

// parentStats was recorded at the parent commit (copying caches) under
// {MemBytes 40 KiB, DiskBytes 48 KiB, LAW 8}: aliasScenario's fragmented
// sequence (3 of 8 chunks per container, 3 shuffled rounds) and its dense
// one (all 8 chunks, 2 shuffled rounds).
var parentStats = map[string]struct{ fragmented, dense Stats }{
	"fv": {
		Stats{Requests: 108, LogicalBytes: 442368, ContainersRead: 40, Rereads: 28, OSSBytes: 1310720,
			MemHits: 44, DiskHits: 24, DiskSwaps: 93, DiskHitBytes: 98304, DiskSwapBytes: 380928},
		Stats{Requests: 192, LogicalBytes: 786432, ContainersRead: 107, Rereads: 95, OSSBytes: 3506176,
			MemHits: 69, DiskHits: 16, DiskSwaps: 670, DiskHitBytes: 65536, DiskSwapBytes: 2744320},
	},
	"opt": {
		Stats{Requests: 108, LogicalBytes: 442368, ContainersRead: 101, Rereads: 89, OSSBytes: 3309568, MemHits: 7},
		Stats{Requests: 192, LogicalBytes: 786432, ContainersRead: 178, Rereads: 166, OSSBytes: 5832704, MemHits: 14},
	},
	"alacc": {
		Stats{Requests: 108, LogicalBytes: 442368, ContainersRead: 78, Rereads: 66, OSSBytes: 2555904, MemHits: 23},
		Stats{Requests: 192, LogicalBytes: 786432, ContainersRead: 137, Rereads: 125, OSSBytes: 4489216, MemHits: 36},
	},
	"lru": {
		Stats{Requests: 108, LogicalBytes: 442368, ContainersRead: 101, Rereads: 89, OSSBytes: 3309568, MemHits: 7},
		Stats{Requests: 192, LogicalBytes: 786432, ContainersRead: 178, Rereads: 166, OSSBytes: 5832704, MemHits: 14},
	},
}
