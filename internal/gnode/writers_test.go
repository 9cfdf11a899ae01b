package gnode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
)

// TestEveryWriterSplitsBySize: whoever writes a payload — a backup's pack
// pool, the synchronous builder (SCC's new containers, scrub's salvage), a
// rewrite (core.Repo.Rebuild: reverse dedup, SCC and sweep) or scrub's donor
// rebuild — puts it by the one rule of container.Store.WritePayload. Under
// rangedCosts (L·B_w ≈ 5 KiB) a 64 KiB payload, at least 4·L·B_w, goes as
// two parts under a v4 meta; a 16 KiB one as one object under a v3 meta.
// Every payload reads back whole and by spans, and its footer checks out
// over its parts.
func TestEveryWriterSplitsBySize(t *testing.T) {
	cfg := testConfig()
	rangedCosts(&cfg)
	lb := int64(cfg.Costs.OSSRequestLatency.Seconds() * cfg.Costs.OSSWriteBandwidth)
	// fill adds chunks through b, flushes it, and returns the container the
	// chunks went to.
	fill := func(t *testing.T, repo *core.Repo, b *container.Builder, chunks [][]byte) container.ID {
		t.Helper()
		var id container.ID
		for _, data := range chunks {
			var err error
			if id, err = b.Add(repo.Fingerprint(nil, data), data); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		return id
	}
	writers := []struct {
		name  string
		write func(t *testing.T, repo *core.Repo, mem *oss.Mem, chunks [][]byte) container.ID
	}{
		{"pack pool", func(t *testing.T, repo *core.Repo, _ *oss.Mem, chunks [][]byte) container.ID {
			pool := container.NewPackPoolBudget(repo.Containers, 1, 0)
			id := fill(t, repo, container.NewBuilderAsync(repo.Containers, pool), chunks)
			metas, err := pool.Close()
			if err != nil || len(metas) != 1 {
				t.Fatalf("pool sealed %d payloads: %v", len(metas), err)
			}
			if err := repo.Containers.WriteMeta(metas[0]); err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"builder", func(t *testing.T, repo *core.Repo, _ *oss.Mem, chunks [][]byte) container.ID {
			return fill(t, repo, container.NewBuilder(repo.Containers), chunks)
		}},
		{"rebuild", func(t *testing.T, repo *core.Repo, _ *oss.Mem, chunks [][]byte) container.ID {
			// The source holds four chunks more, marked deleted: the rewrite
			// puts the chunks asked for.
			cs := repo.Containers
			id := fill(t, repo, container.NewBuilder(cs), append(slices.Clip(chunks), testChunks(99, 4)...))
			m, err := cs.UpdateMeta(id, func(m *container.Meta) *container.Meta {
				for i := len(chunks); i < len(m.Chunks); i++ {
					m.Chunks[i].Deleted = true
				}
				return m
			})
			if err != nil {
				t.Fatal(err)
			}
			nm, _, err := repo.Rebuild(cs, m, nil, cs.AllocateID())
			if err == nil {
				err = repo.Switch(cs, nm, m.Payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			return id
		}},
		{"scrub donor rebuild", func(t *testing.T, repo *core.Repo, mem *oss.Mem, chunks [][]byte) container.ID {
			// Two containers hold the chunks: rot in the first is repaired
			// from the second.
			id := fill(t, repo, container.NewBuilder(repo.Containers), chunks)
			fill(t, repo, container.NewBuilder(repo.Containers), chunks)
			flipChunkAtRest(t, mem, repo, id, repo.Fingerprint(nil, chunks[len(chunks)/2]))
			sc, err := New(repo).Scrub()
			if err != nil || sc.RebuiltContainers != 1 || !sc.Clean() {
				t.Fatalf("scrub = %+v, %v; want one container rebuilt from its donor", sc, err)
			}
			return id
		}},
	}
	for _, w := range writers {
		for _, kib := range []int{16, 64} {
			t.Run(fmt.Sprintf("%s/%dKiB", w.name, kib), func(t *testing.T) {
				_, _, repo, mem := setup(t, cfg)
				chunks := testChunks(int64(kib), kib)
				id := w.write(t, repo, mem, chunks)
				cs := repo.Containers
				m, err := cs.ReadMeta(id)
				if err != nil {
					t.Fatal(err)
				}
				parts, version := 1, uint32(container.MetaV3)
				if int64(kib)<<10 >= 4*lb {
					parts, version = 2, container.MetaV4
				}
				raw, err := mem.Get(container.MetaKey(id))
				if err != nil {
					t.Fatal(err)
				}
				keys, err := mem.List(container.Prefix + m.Payload.String() + ".")
				if err != nil {
					t.Fatal(err)
				}
				keys = slices.DeleteFunc(keys, func(k string) bool { return !strings.HasSuffix(k, ".data") })
				want := m.DataKeys()
				slices.Sort(want) // as listed
				if v := binary.LittleEndian.Uint32(raw[4:]); v != version || m.NumParts() != parts || !slices.Equal(keys, want) {
					t.Fatalf("payload %s of %d KiB: meta v%d naming %d parts, stored as %v; want v%d and %d parts",
						m.Payload, kib, v, m.NumParts(), keys, version, parts)
				}
				whole, err := cs.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				spans := make([]container.Span, len(m.Chunks))
				for i, cm := range m.Chunks {
					spans[i] = container.Span{Off: int64(cm.Offset), Len: int64(cm.Size), Chunks: []int{i}}
				}
				bySpans, err := cs.ReadSpans(id, spans)
				if err != nil {
					t.Fatal(err)
				}
				for i := range m.Chunks {
					for _, c := range []*container.Container{whole, bySpans} {
						if got, err := c.ChunkData(&m.Chunks[i]); err != nil || !bytes.Equal(got, chunks[i]) {
							t.Fatalf("chunk %d reads back %d bytes, %v", i, len(got), err)
						}
					}
				}
				if _, footerOK, err := cs.ReadRaw(id); err != nil || !footerOK {
					t.Fatalf("ReadRaw: footerOK %v, %v", footerOK, err)
				}
			})
		}
	}
}

// testChunks cuts genData(seed, n KiB) into n one-KiB chunks.
func testChunks(seed int64, n int) [][]byte {
	data := genData(seed, n<<10)
	chunks := make([][]byte, n)
	for i := range chunks {
		chunks[i] = data[i<<10 : (i+1)<<10 : (i+1)<<10]
	}
	return chunks
}
