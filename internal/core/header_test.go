package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// issued opens store under cfg through a recorder and returns every
// request that reached the store, in order, with the open's error.
func issued(store oss.Store, cfg Config) ([]string, error) {
	var rec oss.Recorder
	_, err := OpenRepo(oss.With(store, &rec), cfg)
	var ops []string
	for _, q := range rec.Take() {
		ops = append(ops, q.Op.String())
	}
	return ops, err
}

// refused opens mem under cfg, which must fail with an error containing
// every want, having issued the header GET and nothing else and left the
// store as it was.
func refused(t *testing.T, mem *oss.Mem, cfg Config, want ...string) {
	t.Helper()
	before := dump(t, mem)
	ops, err := issued(mem, cfg)
	if err == nil {
		t.Fatalf("open succeeded, want an error containing %q", want)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not contain %q", err, w)
		}
	}
	if got := []string{"get " + HeaderKey}; !reflect.DeepEqual(ops, got) {
		t.Errorf("a refused open issued %q, want only %q", ops, got)
	}
	if !reflect.DeepEqual(dump(t, mem), before) {
		t.Error("a refused open changed the store")
	}
}

func dump(t *testing.T, s oss.Store) map[string]string {
	t.Helper()
	keys, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		b, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = string(b)
	}
	return out
}

// TestHeaderSettlesLayout: for each layout field, a repository created with
// value A reports A to a handle that asks for nothing, and refuses a handle
// that asks for B — naming the field and both values, after one GET.
func TestHeaderSettlesLayout(t *testing.T) {
	ec := Config{ECDataShards: 2, ECParityShards: 1}
	for _, row := range []struct {
		field string
		a, b  Config
		get   func(*Config) any
	}{
		{"FingerprintAlg", Config{FingerprintAlg: fingerprint.SHA256}, Config{FingerprintAlg: 7},
			func(c *Config) any { return c.FingerprintAlg }},
		{"FingerprintAlg", Config{}, Config{FingerprintAlg: fingerprint.SHA256},
			func(c *Config) any { return c.FingerprintAlg }},
		{"ChunkAlgo", Config{ChunkAlgo: "gear"}, Config{ChunkAlgo: "rabin"},
			func(c *Config) any { return c.ChunkAlgo }},
		{"ChunkParams", Config{ChunkParams: chunker.ParamsForAvg(8 << 10)}, Config{ChunkParams: chunker.ParamsForAvg(2 << 10)},
			func(c *Config) any { return c.ChunkParams }},
		{"GlobalShards", Config{GlobalShards: 2}, Config{GlobalShards: 4},
			func(c *Config) any { return c.GlobalShards }},
		{"GlobalReplicas", Config{GlobalReplicas: 3}, Config{GlobalReplicas: 5},
			func(c *Config) any { return c.GlobalReplicas }},
		{"ECDataShards", ec, Config{ECDataShards: 4}, func(c *Config) any { return c.ECDataShards }},
		{"ECParityShards", ec, Config{ECParityShards: 2}, func(c *Config) any { return c.ECParityShards }},
	} {
		t.Run(fmt.Sprintf("%s=%v", row.field, row.get(&row.a)), func(t *testing.T) {
			mem := oss.NewMem()
			created, err := OpenRepo(mem, row.a)
			if err != nil {
				t.Fatal(err)
			}
			a := row.get(&created.Config)
			if asked := row.get(&row.a); !reflect.ValueOf(asked).IsZero() && !reflect.DeepEqual(a, asked) {
				t.Fatalf("created with %s=%v, Repo.Config reports %v", row.field, asked, a)
			}
			reopened, err := OpenRepo(mem, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reopened.Config, created.Config) {
				t.Errorf("a zero config reopened as\n%+v\nwant the repository's\n%+v", reopened.Config, created.Config)
			}
			if _, err := OpenRepo(mem, row.a); err != nil {
				t.Errorf("reopening with the creating config: %v", err)
			}
			b := row.get(&row.b)
			refused(t, mem, row.b, fmt.Sprintf("repository has %s=%v, opened with %s=%v", row.field, a, row.field, b))
		})
	}
}

// TestLayoutValidation: a layout no repository can have is refused before
// the header is written, naming the field.
func TestLayoutValidation(t *testing.T) {
	for _, row := range []struct {
		cfg  Config
		want string
	}{
		{Config{ECParityShards: 2}, "ECParityShards=2: parity needs data shards"},
		{Config{ECDataShards: -1}, "ECDataShards=-1"},
		{Config{GlobalShards: 257}, "GlobalShards 257"},
		{Config{ChunkAlgo: "nope"}, "nope"},
	} {
		mem := oss.NewMem()
		if _, err := OpenRepo(mem, row.cfg); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%+v: got %v, want an error containing %q", row.cfg, err, row.want)
		}
		if keys, _ := mem.List(""); len(keys) != 0 {
			t.Errorf("%q: a refused layout left %v behind", row.want, keys)
		}
	}
	// The same request against a repository that has no tier names the
	// field too.
	mem := oss.NewMem()
	if _, err := OpenRepo(mem, Config{}); err != nil {
		t.Fatal(err)
	}
	refused(t, mem, Config{ECParityShards: 2}, "repository has ECParityShards=0, opened with ECParityShards=2")
}

// TestHeaderDamage: a header that cannot be trusted refuses the open,
// saying which check failed.
func TestHeaderDamage(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	good := encodeHeader(&cfg)
	if got, err := decodeHeader(good); err != nil || !reflect.DeepEqual(encodeHeader(&got), good) {
		t.Fatalf("a written header does not round-trip: %v", err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, tc := range map[string]struct {
		raw  []byte
		want string
	}{
		"flipped byte": {mutate(func(b []byte) []byte { b[30] ^= 0x10; return b }), "checksum"},
		"flipped crc":  {mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), "checksum"},
		"truncated":    {good[:headerSize-1], fmt.Sprintf("truncated or padded: %d bytes", headerSize-1)},
		"cut short":    {good[:5], "truncated or padded: 5 bytes"},
		"padded":       {append(bytes.Clone(good), 0), "truncated or padded"},
		"empty":        {nil, "truncated or padded: 0 bytes"},
		"bad magic":    {mutate(func(b []byte) []byte { b[0] = 's'; return b }), "bad magic"},
		"unknown version": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(headerMagic):], 9)
			return b
		}), "format 9, this build reads 3"},
		// What the build before write-once payloads wrote: whole, checksum
		// and all, and refused by name.
		"format 1": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(headerMagic):], 1)
			binary.LittleEndian.PutUint32(b[60:], container.ChecksumOf(b[:60]))
			return b
		}), "format 1, this build reads 3"},
		// Format 2 may hold a committed intent-journal record, which this
		// build would leave unapplied: refused by name too.
		"format 2": {mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(headerMagic):], 2)
			binary.LittleEndian.PutUint32(b[60:], container.ChecksumOf(b[:60]))
			return b
		}), "format 2, this build reads 3"},
	} {
		t.Run(name, func(t *testing.T) {
			mem := oss.NewMem()
			if _, err := OpenRepo(mem, Config{}); err != nil {
				t.Fatal(err)
			}
			if err := mem.Put(HeaderKey, tc.raw); err != nil {
				t.Fatal(err)
			}
			refused(t, mem, Config{}, "repository header", tc.want)
		})
	}
}

// TestHeaderIsFirstObject: an empty store becomes a repository whose first
// object is the header; a store that holds objects but no header is
// refused untouched; a crash before the header put leaves an empty store
// the next open initialises.
func TestHeaderIsFirstObject(t *testing.T) {
	ops, err := issued(oss.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"get " + HeaderKey, "list ", "put " + HeaderKey}; len(ops) < 3 || !reflect.DeepEqual(ops[:3], want) {
		t.Fatalf("a new repository began with %q, want %q", ops, want)
	}

	mem := oss.NewMem()
	if err := mem.Put("containers/stray", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ops, err = issued(mem, Config{})
	if err == nil || !strings.Contains(err.Error(), "store holds objects but no repository header") {
		t.Fatalf("a store with keys and no header opened: %v", err)
	}
	if want := []string{"get " + HeaderKey, "list "}; !reflect.DeepEqual(ops, want) {
		t.Errorf("the refusal issued %q, want %q", ops, want)
	}

	mem = oss.NewMem()
	faulty := oss.NewFaulty(mem)
	faulty.FailPutsAfter(0)
	if _, err := OpenRepo(faulty, Config{GlobalShards: 2}); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("open with no put budget: %v, want the injected fault", err)
	}
	if keys, _ := mem.List(""); len(keys) != 0 {
		t.Fatalf("a crash before the header put left %v", keys)
	}
	faulty.Clear()
	repo, err := OpenRepo(faulty, Config{GlobalShards: 4})
	if err != nil || repo.Config.GlobalShards != 4 {
		t.Fatalf("the open after the crash: %v", err)
	}
}

// FuzzDecodeHeader: decodeHeader never panics, allocates a bounded amount
// whatever the input claims, and what it accepts re-encodes to a header
// that decodes to the same layout.
func FuzzDecodeHeader(f *testing.F) {
	cfg := Config{ECDataShards: 2, ECParityShards: 1}
	cfg.fillDefaults()
	good := encodeHeader(&cfg)
	f.Add(good)
	f.Add(good[:20])
	f.Add(append(bytes.Clone(good), good...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// TotalAlloc is the process's: a decode over the limit is measured
		// once more, since another goroutine's allocation does not land in
		// both windows.
		var (
			c   Config
			err error
		)
		got, limit := ^uint64(0), uint64(1024)
		for try := 0; try < 2 && got > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err = decodeHeader(data)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeHeader(encodeHeader(&c))
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("accepted header does not round-trip: %v\n got %+v\nwant %+v", err, again, c)
		}
	})
}

// TestOpenCrashAtEveryMutation: the open that creates a repository, on
// every layout, cut at any of its mutations (today the header put is the
// only one), leaves a store that the next open under the same config
// completes to the objects and Config a clean open makes, and that then
// refuses a different FingerprintAlg after one GET.
func TestOpenCrashAtEveryMutation(t *testing.T) {
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"4x3", Config{GlobalShards: 4, GlobalReplicas: 3}},
		{"2+2", Config{ECDataShards: 2, ECParityShards: 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cleanMem := oss.NewMem()
			clean, err := OpenRepo(cleanMem, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := dump(t, cleanMem)
			other := row.cfg
			other.FingerprintAlg = fingerprint.SHA256
			if clean.Config.FingerprintAlg == other.FingerprintAlg {
				t.Fatalf("fixture: the default FingerprintAlg is %v already", other.FingerprintAlg)
			}
			oss.CrashAtEvery(t, oss.NewMem(), 1, 64, func(s oss.Store) error {
				_, err := OpenRepo(s, row.cfg)
				return err
			}, func(mem *oss.Mem, n int, _ error) bool {
				repo, err := OpenRepo(mem, row.cfg)
				if err != nil {
					t.Fatalf("budget %d: the open after the crash: %v", n, err)
				}
				if !reflect.DeepEqual(repo.Config, clean.Config) {
					t.Fatalf("budget %d: reopened as\n%+v\nwant\n%+v", n, repo.Config, clean.Config)
				}
				if got := dump(t, mem); !reflect.DeepEqual(got, want) {
					t.Fatalf("budget %d: the reopened store holds %d objects, a clean open's %d, or other bytes", n, len(got), len(want))
				}
				refused(t, mem, other, "repository has FingerprintAlg=")
				return false
			})
		})
	}
}
