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
// backs up into the same striped containers and restores byte for byte
// through either handle; a handle that asks for another layout is refused.
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
	if plain, _ := mem.List("containers/"); len(plain) != 0 {
		t.Errorf("containers written outside the redundancy tier: %v", plain)
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

// TestStoreBytesTwin: the same serial sequence of backups, G-node passes, a
// deletion and a scrub on two fresh stores leaves the same keys holding the
// same bytes, header included.
func TestStoreBytesTwin(t *testing.T) {
	run := func() *oss.Mem {
		mem := oss.NewMem()
		sys, err := Open(mem, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		for f, seed := range []int64{21, 22} {
			name := []string{"db/a", "db/b"}[f]
			data := genData(seed, 1<<20)
			for v := 0; v < 3; v++ {
				st, err := sys.Backup(name, data)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := sys.Optimize(st); err != nil {
					t.Fatal(err)
				}
				data = bytes.Clone(data)
				copy(data[(v+1)*200_000:], genData(seed*10+int64(v), 50_000))
			}
		}
		if _, err := sys.DeleteVersion("db/a", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Scrub(); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	x, y := run(), run()
	xk, _ := x.List("")
	yk, _ := y.List("")
	if strings.Join(xk, "\n") != strings.Join(yk, "\n") {
		t.Fatalf("key sets differ:\n%v\n%v", xk, yk)
	}
	if len(xk) < 20 || !slices.Contains(xk, core.HeaderKey) {
		t.Fatalf("fixture: %d keys, or no %s among them: %v", len(xk), core.HeaderKey, xk)
	}
	for _, k := range xk {
		xb, _ := x.Get(k)
		yb, _ := y.Get(k)
		if !bytes.Equal(xb, yb) {
			t.Errorf("%s: %d and %d bytes, contents differ", k, len(xb), len(yb))
		}
	}
}
