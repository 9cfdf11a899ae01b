package recipe

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/oss"
)

// randRecipe builds a structurally valid recipe from a seed, exercising
// every record shape (plain, duplicate-counted, superchunk) and segment
// layout the encoder supports.
func randRecipe(seed int64, segments, records int) *Recipe {
	rng := rand.New(rand.NewSource(seed))
	segments = segments%8 + 1
	records = records%64 + 1
	r := &Recipe{FileID: "fuzz/file", Version: int(uint64(seed) % 1000)}
	for s := 0; s < segments; s++ {
		var seg Segment
		for i := 0; i < records; i++ {
			var rec ChunkRecord
			rng.Read(rec.FP[:])
			rec.Container = container.ID(rng.Int63())
			rec.Size = uint32(rng.Intn(1 << 20))
			rec.DuplicateTimes = uint32(rng.Intn(1 << 16))
			if rng.Intn(4) == 0 {
				rec.Super = true
				rng.Read(rec.FirstChunk[:])
			}
			seg.Records = append(seg.Records, rec)
		}
		r.Segments = append(r.Segments, seg)
	}
	return r
}

func recipesEqual(t *testing.T, a, b *Recipe) {
	t.Helper()
	if a.FileID != b.FileID || a.Version != b.Version {
		t.Fatalf("identity mismatch: %s v%d vs %s v%d", a.FileID, a.Version, b.FileID, b.Version)
	}
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment count %d vs %d", len(a.Segments), len(b.Segments))
	}
	for s := range a.Segments {
		ra, rb := a.Segments[s].Records, b.Segments[s].Records
		if len(ra) != len(rb) {
			t.Fatalf("segment %d: record count %d vs %d", s, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("segment %d record %d differs:\n  %+v\n  %+v", s, i, ra[i], rb[i])
			}
		}
	}
}

// FuzzRecipeRoundTrip checks Encode→Decode is the identity for
// structurally valid recipes of every shape.
func FuzzRecipeRoundTrip(f *testing.F) {
	f.Add(int64(1), 1, 1)
	f.Add(int64(42), 3, 17)
	f.Add(int64(-7), 7, 63)
	f.Fuzz(func(t *testing.T, seed int64, segments, records int) {
		r := randRecipe(seed, segments, records)
		dec, err := Decode(Encode(r))
		if err != nil {
			t.Fatalf("decode of valid encoding: %v", err)
		}
		recipesEqual(t, r, dec)

		// Segment-level round trip must agree with the full-recipe path.
		for s := range r.Segments {
			seg, err := DecodeSegment(EncodeSegment(&r.Segments[s]))
			if err != nil {
				t.Fatalf("segment %d: decode of valid encoding: %v", s, err)
			}
			if len(seg.Records) != len(r.Segments[s].Records) {
				t.Fatalf("segment %d: record count %d vs %d", s, len(seg.Records), len(r.Segments[s].Records))
			}
			for i := range seg.Records {
				if seg.Records[i] != r.Segments[s].Records[i] {
					t.Fatalf("segment %d record %d differs after round trip", s, i)
				}
			}
		}
	})
}

// FuzzRecipeDecode throws arbitrary bytes at the decoders: they must never
// panic, and anything they accept must re-encode to something they accept
// again with identical content (decode is a retraction of encode).
func FuzzRecipeDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(randRecipe(3, 2, 5)))
	f.Add(EncodeSegment(&randRecipe(4, 1, 9).Segments[0]))
	f.Fuzz(func(t *testing.T, b []byte) {
		if r, err := Decode(b); err == nil {
			again, err := Decode(Encode(r))
			if err != nil {
				t.Fatalf("re-decode of accepted recipe: %v", err)
			}
			recipesEqual(t, r, again)
		}
		if seg, err := DecodeSegment(b); err == nil {
			again, err := DecodeSegment(EncodeSegment(seg))
			if err != nil {
				t.Fatalf("re-decode of accepted segment: %v", err)
			}
			if len(again.Records) != len(seg.Records) {
				t.Fatalf("segment record count changed: %d vs %d", len(again.Records), len(seg.Records))
			}
			for i := range seg.Records {
				if seg.Records[i] != again.Records[i] {
					t.Fatalf("segment record %d changed across round trip", i)
				}
			}
		}
	})
}

// FuzzCatalogDecode: whatever a catalog entry holds, DecodeInfo never panics
// and allocates in proportion to the input, never as a hostile count says;
// what it accepts re-encodes to the same bytes.
func FuzzCatalogDecode(f *testing.F) {
	good := EncodeInfo(&VersionInfo{FileID: "db/a", Version: 3, LogicalSize: 1 << 30, StoredSize: 1 << 20,
		NumChunks: 4096, Containers: []container.ID{1, 5, 8}, Garbage: []container.ID{2}})
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(EncodeInfo(&VersionInfo{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			v   *VersionInfo
			err error
		)
		boundedAlloc(t, len(b), func() { v, err = DecodeInfo(b) })
		if err != nil {
			return
		}
		if again := EncodeInfo(v); !reflect.DeepEqual(again, b) {
			t.Fatalf("an accepted entry re-encodes to other bytes:\n%x\n%x", b, again)
		}
	})
}

// FuzzSegmentReader: whatever a recipe object holds, OpenSegments over it
// and a Fetch of every segment its directory lists that lies in the prefix
// the open read never panic and allocate in proportion to the object; a
// segment fetched is what Decode of the whole object holds there.
func FuzzSegmentReader(f *testing.F) {
	f.Add(Encode(randRecipe(5, 3, 9)))
	f.Add(Encode(randRecipe(6, 0, 0)))
	trunc := Encode(randRecipe(7, 2, 20))
	f.Add(trunc[:len(trunc)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		mem := oss.NewMem()
		if err := mem.Put(recipeKey("f", 0), b); err != nil {
			t.Fatal(err)
		}
		s := NewStore(mem)
		var segs []*Segment
		boundedAlloc(t, len(b), func() {
			segs = nil
			sr, err := s.OpenSegments("f", 0)
			if err != nil {
				return
			}
			for i := 0; i < sr.NumSegments(); i++ {
				if d := sr.dir.segments[i]; d.off > uint64(len(sr.head)) || d.n > uint64(len(sr.head))-d.off {
					segs = append(segs, nil) // would be a ranged read past the prefix
					continue
				}
				seg, err := sr.Fetch(i)
				if err != nil {
					seg = nil
				}
				segs = append(segs, seg)
			}
		})
		whole, err := Decode(b)
		if err != nil {
			return
		}
		for i, seg := range segs {
			if seg != nil && !reflect.DeepEqual(seg.Records, whole.Segments[i].Records) {
				t.Fatalf("segment %d fetched from the prefix differs from the whole object's", i)
			}
		}
	})
}

// boundedAlloc runs decode over n bytes of input and fails t if it allocated
// more than in proportion to them. TotalAlloc is the process's, and a fuzz
// worker has goroutines of its own: a decode over the limit is measured
// once more, since what somebody else allocated does not land in both
// windows.
func boundedAlloc(t *testing.T, n int, decode func()) {
	got, limit := ^uint64(0), uint64(64*n+4096)
	for try := 0; try < 2 && got > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", n, got, limit)
	}
}
