package slimstore

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"slimstore/internal/core"
	"slimstore/internal/oss"
)

// TestSecondHandleTakesTheRepositorysLayout: a handle that names no layout
// against an erasure-coded repository — the forgotten -ec-data flags —
// backs up into the same striped payloads, their metas on the plain store,
// and restores byte for byte through either handle; a handle that asks for
// another layout is refused.
func TestSecondHandleTakesTheRepositorysLayout(t *testing.T) {
	mem := oss.NewMem()
	cfg := smallConfig()
	cfg.ECDataShards, cfg.ECParityShards = 2, 1
	first, err := Open(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := genData(11, 1<<20)
	if _, err := first.Backup("a", a); err != nil {
		t.Fatal(err)
	}

	second, err := Open(mem, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c := second.Config(); c.ECDataShards != 2 || c.ECParityShards != 1 {
		t.Fatalf("second handle runs EC %d+%d, want the repository's 2+1", c.ECDataShards, c.ECParityShards)
	}
	b := append(bytes.Clone(a[:512<<10]), genData(12, 512<<10)...)
	st, err := second.Backup("b", b)
	if err != nil {
		t.Fatal(err)
	}
	if st.DedupRatio() < 0.4 {
		t.Errorf("second handle deduplicated %.2f of a half-shared file", st.DedupRatio())
	}
	plain, _ := mem.List("containers/")
	striped, _ := mem.List("ec/")
	if len(plain) == 0 || 3*len(plain) != len(striped) {
		t.Errorf("%d plain container objects beside %d shards, want a 2+1 stripe of each one's payload", len(plain), len(striped))
	}
	for _, k := range plain {
		if !strings.HasSuffix(k, ".meta") {
			t.Errorf("a payload written outside the redundancy tier: %s", k)
		}
	}
	for _, k := range striped {
		if !strings.HasSuffix(k, ".data") {
			t.Errorf("a meta striped: %s", k)
		}
	}
	for _, sys := range []*System{first, second} {
		for name, want := range map[string][]byte{"a": a, "b": b} {
			var out bytes.Buffer
			if _, err := sys.Restore(name, 0, &out); err != nil {
				t.Fatalf("restore %s: %v", name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("restore %s: bytes differ", name)
			}
		}
	}

	cfg.ECDataShards = 4
	const want = "repository has ECDataShards=2, opened with ECDataShards=4"
	if _, err := Open(mem, cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open with another layout: %v, want an error containing %q", err, want)
	}
}

// TestStoreBytesTwin: the same sequence of backups, G-node passes, a
// deletion and a scrub on two fresh stores, one with the G-node serial and
// one four wide, leaves the same keys holding the same bytes, header
// included, every key in one of the repository's namespaces — on the plain
// layout and over RS(2+2). The fixture's reverse
// dedup rewrites containers, so the fresh IDs their payloads go under are
// among what must not depend on the width.
func TestStoreBytesTwin(t *testing.T) {
	run := func(ec, workers int) (*oss.Mem, int) {
		mem := oss.NewMem()
		cfg := smallConfig()
		cfg.Costs.OSSRequestLatency /= 8 // L·B_w of 25 KiB: a backup's 256 KiB payloads go as two parts
		cfg.SimilarityMinScore = 1.1     // miss the duplicates across files: reverse dedup's
		cfg.ECDataShards, cfg.ECParityShards, cfg.MaintWorkers = ec, ec, workers
		sys, err := Open(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rewritten := 0
		shared := genData(21, 1<<20)
		for f, data := range [][]byte{shared, append(genData(22, 448<<10), shared[:576<<10]...)} {
			name := []string{"db/a", "db/b"}[f]
			for v := 0; v < 3; v++ {
				st, err := sys.Backup(name, data)
				if err != nil {
					t.Fatal(err)
				}
				rd, _, err := sys.Optimize(st)
				if err != nil {
					t.Fatal(err)
				}
				rewritten += rd.ContainersRewritten
				data = bytes.Clone(data)
				copy(data[(v+1)*200_000:], genData(int64(f*10+v), 50_000))
			}
		}
		if _, err := sys.DeleteVersion("db/a", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Scrub(); err != nil {
			t.Fatal(err)
		}
		return mem, rewritten
	}
	for _, ec := range []int{0, 2} {
		t.Run(map[int]string{0: "plain", 2: "2+2"}[ec], func(t *testing.T) {
			x, rewritten := run(ec, -1)
			y, _ := run(ec, 4)
			if rewritten == 0 {
				t.Fatal("fixture: reverse dedup rewrote no container")
			}
			xk, _ := x.List("")
			yk, _ := y.List("")
			if strings.Join(xk, "\n") != strings.Join(yk, "\n") {
				t.Fatalf("key sets differ:\n%v\n%v", xk, yk)
			}
			if len(xk) < 20 || !slices.Contains(xk, core.HeaderKey) {
				t.Fatalf("fixture: %d keys, or no %s among them: %v", len(xk), core.HeaderKey, xk)
			}
			if !slices.ContainsFunc(xk, func(k string) bool { return strings.HasSuffix(k, ".1.data") }) {
				t.Fatal("fixture: no payload is stored in parts")
			}
			// The namespaces a repository has, and no other: a journal/ key,
			// or one of a namespace nobody listed here, fails the twin.
			namespaces := []string{"repo", "containers", "quarantine", "recipes", "catalog", "simindex", "gidx"}
			if ec > 0 {
				namespaces = append(namespaces, "ec")
			}
			for _, k := range xk {
				if top, _, _ := strings.Cut(k, "/"); !slices.Contains(namespaces, top) {
					t.Errorf("%s: namespace %q is not one of %v", k, top, namespaces)
				}
			}
			for _, k := range xk {
				xb, _ := x.Get(k)
				yb, _ := y.Get(k)
				if !bytes.Equal(xb, yb) {
					t.Errorf("%s: %d and %d bytes, contents differ", k, len(xb), len(yb))
				}
			}
			t.Logf("%d keys, %d containers rewritten by reverse dedup", len(xk), rewritten)
		})
	}
}
