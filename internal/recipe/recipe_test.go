package recipe

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func fpN(n int) fingerprint.FP {
	return fingerprint.OfBytes([]byte(fmt.Sprintf("chunk-%d", n)))
}

func sampleRecipe(fileID string, version, segs, perSeg int) *Recipe {
	r := &Recipe{FileID: fileID, Version: version}
	n := 0
	for s := 0; s < segs; s++ {
		var seg Segment
		for i := 0; i < perSeg; i++ {
			rec := ChunkRecord{
				FP:             fpN(n),
				Container:      container.ID(n/4 + 1),
				Size:           uint32(4096 + n),
				DuplicateTimes: uint32(n % 7),
			}
			if n%5 == 0 {
				rec.Super = true
				rec.FirstChunk = fpN(n * 1000)
			}
			seg.Records = append(seg.Records, rec)
			n++
		}
		r.Segments = append(r.Segments, seg)
	}
	return r
}

func TestRecipeRoundTrip(t *testing.T) {
	r := sampleRecipe("db/users.tbl", 3, 4, 17)
	got, err := Decode(Encode(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatal("recipe round trip mismatch")
	}
	if got.NumChunks() != 4*17 {
		t.Fatalf("NumChunks = %d", got.NumChunks())
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	seg := &sampleRecipe("f", 0, 1, 9).Segments[0]
	got, err := DecodeSegment(EncodeSegment(seg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seg) {
		t.Fatal("segment round trip mismatch")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1}); err == nil {
		t.Fatal("short recipe accepted")
	}
	b := Encode(sampleRecipe("f", 0, 2, 3))
	b[0] ^= 0xFF
	if _, err := Decode(b); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeSegment([]byte{9, 0, 0, 0, 1}); err == nil {
		t.Fatal("truncated segment accepted")
	}
	if _, err := DecodeIndex([]byte{1, 2}); err == nil {
		t.Fatal("short index accepted")
	}
}

func TestIterEarlyStop(t *testing.T) {
	r := sampleRecipe("f", 0, 3, 5)
	count := 0
	r.Iter(func(seg, idx int, rec *ChunkRecord) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("Iter visited %d records, want 7", count)
	}
}

func TestBuildIndex(t *testing.T) {
	r := sampleRecipe("f", 2, 5, 32)
	idx := BuildIndex(r, fingerprint.NewSampler(4))
	// Every segment's first fingerprint must be present.
	for s := range r.Segments {
		first := r.Segments[s].Records[0].FP
		if seg, ok := idx.Samples[first]; !ok {
			t.Fatalf("segment %d head fingerprint missing from index", s)
		} else if seg > int32(s) {
			t.Fatalf("head fingerprint of segment %d maps to later segment %d", s, seg)
		}
	}
	// Index entries point at a segment actually containing the sample,
	// either as a record fingerprint or as a superchunk's FirstChunk.
	for fp, s := range idx.Samples {
		found := false
		for i := range r.Segments[s].Records {
			rec := &r.Segments[s].Records[i]
			if rec.FP == fp || (rec.Super && rec.FirstChunk == fp) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("index entry %s → segment %d does not contain the fingerprint", fp.Short(), s)
		}
	}
	// Superchunk FirstChunk handles must always be indexed.
	r.Iter(func(s, _ int, rec *ChunkRecord) bool {
		if rec.Super {
			if _, ok := idx.Samples[rec.FirstChunk]; !ok {
				t.Fatalf("superchunk FirstChunk %s not indexed", rec.FirstChunk.Short())
			}
		}
		return true
	})
	// Round trip.
	got, err := DecodeIndex(EncodeIndex(idx))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, idx) {
		t.Fatal("index round trip mismatch")
	}
}

func TestStoreRecipeAndSegments(t *testing.T) {
	mem := oss.NewMem()
	s := NewStore(mem)
	r := sampleRecipe("path/to/backup.db", 3, 6, 21)
	if _, err := s.PutRecipe(r); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRecipe(r.FileID, r.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatal("stored recipe mismatch")
	}

	// Per-segment ranged fetches.
	sr, err := s.OpenSegments(r.FileID, r.Version)
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumSegments() != 6 {
		t.Fatalf("NumSegments = %d", sr.NumSegments())
	}
	for i := 0; i < 6; i++ {
		seg, err := sr.Fetch(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seg, &r.Segments[i]) {
			t.Fatalf("segment %d mismatch", i)
		}
	}
	if _, err := sr.Fetch(6); err == nil {
		t.Fatal("out-of-range segment accepted")
	}

	// Missing recipe.
	if _, err := s.GetRecipe("nope", 0); err == nil {
		t.Fatal("missing recipe did not error")
	}

	// Index round trip through the store.
	idx := BuildIndex(r, fingerprint.NewSampler(8))
	if err := s.PutIndex(idx); err != nil {
		t.Fatal(err)
	}
	gi, err := s.GetIndex(r.FileID, r.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gi, idx) {
		t.Fatal("stored index mismatch")
	}

	// Delete removes both.
	if err := s.DeleteRecipe(r.FileID, r.Version); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetRecipe(r.FileID, r.Version); err == nil {
		t.Fatal("recipe survived delete")
	}
	if _, err := s.GetIndex(r.FileID, r.Version); err == nil {
		t.Fatal("index survived delete")
	}
}

// TestSegmentReaderServesPrefix: the bytes OpenSegments read to find the
// directory serve every segment lying inside them. Fetching every segment
// of a recipe smaller than the prefix is one request in all; of a larger
// one, one plus the segments that reach beyond the prefix; of one whose
// directory alone outgrows the prefix (the full-object retry), two.
func TestSegmentReaderServesPrefix(t *testing.T) {
	for _, tc := range []struct {
		name         string
		segs, perSeg int
	}{
		{"small", 6, 10},
		{"large", 40, 100},
		{"huge directory", 5000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := sampleRecipe("f", 0, tc.segs, tc.perSeg)
			var rec oss.Recorder
			s := NewStore(oss.With(oss.NewMem(), &rec))
			if _, err := s.PutRecipe(r); err != nil {
				t.Fatal(err)
			}
			enc := Encode(r)
			d, err := decodeDirectory(enc)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			switch dirEnd := int(d.segments[0].off); {
			case dirEnd > segmentHeadBytes:
				want = 2 // prefix, then the whole object: every segment is in it
			default:
				for _, seg := range d.segments {
					if seg.off+seg.n > segmentHeadBytes {
						want++
					}
				}
			}
			if tc.name == "small" && len(enc) >= segmentHeadBytes || tc.name == "large" && want == 1 {
				t.Fatalf("fixture: %d encoded bytes, %d requests expected", len(enc), want)
			}

			sr, err := s.OpenSegments("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range r.Segments {
				seg, err := sr.Fetch(i)
				if err != nil {
					t.Fatalf("segment %d: %v", i, err)
				}
				if !reflect.DeepEqual(seg, &r.Segments[i]) {
					t.Fatalf("segment %d mismatch", i)
				}
			}
			// Every request but PutRecipe's puts: a head or a list would count too.
			if reads := len(rec.Requests(func(op oss.Op) bool { return op.Kind != oss.KindPut })); reads != want {
				t.Errorf("%d read requests for %d segments, want %d", reads, len(r.Segments), want)
			}
		})
	}
}

func TestCatalog(t *testing.T) {
	mem := oss.NewMem()
	s := NewStore(mem)

	if _, ok, err := s.LatestVersion("f1"); err != nil || ok {
		t.Fatalf("LatestVersion on empty = %v, %v", ok, err)
	}

	for v := 0; v < 4; v++ {
		info := &VersionInfo{
			FileID: "f1", Version: v,
			LogicalSize: int64(1000 * (v + 1)), StoredSize: int64(100 * (v + 1)),
			NumChunks:  10 * (v + 1),
			Containers: []container.ID{container.ID(v + 1), container.ID(v + 2)},
			Garbage:    []container.ID{container.ID(100 + v)},
		}
		if err := s.PutInfo(info); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutInfo(&VersionInfo{FileID: "dir/f2", Version: 0}); err != nil {
		t.Fatal(err)
	}

	vs, err := s.Versions("f1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vs, []int{0, 1, 2, 3}) {
		t.Fatalf("Versions = %v", vs)
	}
	latest, ok, err := s.LatestVersion("f1")
	if err != nil || !ok || latest != 3 {
		t.Fatalf("LatestVersion = %d, %v, %v", latest, ok, err)
	}

	info, err := s.GetInfo("f1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.LogicalSize != 3000 || len(info.Containers) != 2 || len(info.Garbage) != 1 {
		t.Fatalf("GetInfo = %+v", info)
	}

	files, err := s.Files()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(files, []string{"dir/f2", "f1"}) {
		t.Fatalf("Files = %v", files)
	}

	if err := s.DeleteInfo("f1", 0); err != nil {
		t.Fatal(err)
	}
	vs, _ = s.Versions("f1")
	if !reflect.DeepEqual(vs, []int{1, 2, 3}) {
		t.Fatalf("Versions after delete = %v", vs)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	v := &VersionInfo{
		FileID: "weird/name with spaces", Version: 42,
		LogicalSize: 1 << 40, StoredSize: 123456789, NumChunks: 99,
		Containers: []container.ID{5, 9, 11},
		Garbage:    []container.ID{},
	}
	got, err := DecodeInfo(EncodeInfo(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.FileID != v.FileID || got.Version != v.Version ||
		got.LogicalSize != v.LogicalSize || got.StoredSize != v.StoredSize ||
		got.NumChunks != v.NumChunks || !reflect.DeepEqual(got.Containers, v.Containers) ||
		len(got.Garbage) != 0 {
		t.Fatalf("info round trip mismatch: %+v", got)
	}
	if _, err := DecodeInfo([]byte{1, 2}); err == nil {
		t.Fatal("short info accepted")
	}
}

// TestInfoRefusesDamage: a catalog entry commits a version and decides
// which containers are live, so a damaged one is refused whole — at every
// truncation point, under every single-bit flip, with trailing bytes, and
// in another format — never decoded into a wrong live set.
func TestInfoRefusesDamage(t *testing.T) {
	enc := EncodeInfo(&VersionInfo{
		FileID: "db/a", Version: 7, LogicalSize: 5 << 20, StoredSize: 1 << 20, NumChunks: 1280,
		Containers: []container.ID{3, 4, 9}, Garbage: []container.ID{1, 2},
	})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeInfo(enc[:cut]); err == nil {
			t.Fatalf("cut at %d of %d accepted", cut, len(enc))
		}
	}
	for pos := 0; pos < len(enc); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			if _, err := DecodeInfo(mut); err == nil {
				t.Fatalf("flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
	for _, extra := range [][]byte{{0}, {0xFE}, make([]byte, 8)} {
		if _, err := DecodeInfo(append(append([]byte(nil), enc...), extra...)); err == nil {
			t.Fatalf("%d trailing bytes accepted", len(extra))
		}
	}
	// Another format word, with a checksum that matches it.
	mut := append([]byte(nil), enc...)
	mut[3]++
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], container.ChecksumOf(mut[:len(mut)-4]))
	if _, err := DecodeInfo(mut); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("another format: err = %v, want it named", err)
	}
}

// Property: recipes with random shapes survive encode/decode.
func TestQuickRecipeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(segSizes []uint8, super []bool) bool {
		rec := &Recipe{FileID: "q", Version: 1}
		n := 0
		for _, sz := range segSizes {
			var seg Segment
			for i := 0; i < int(sz)%20; i++ {
				cr := ChunkRecord{
					FP:             fpN(r.Int()),
					Container:      container.ID(r.Uint64()),
					Size:           r.Uint32(),
					DuplicateTimes: r.Uint32(),
				}
				if n < len(super) && super[n] {
					cr.Super = true
					cr.FirstChunk = fpN(r.Int())
				}
				n++
				seg.Records = append(seg.Records, cr)
			}
			rec.Segments = append(rec.Segments, seg)
		}
		got, err := Decode(Encode(rec))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotStore(t *testing.T) {
	s := NewStore(oss.NewMem())
	snap := &Snapshot{
		ID: "2026-07-06T00:00",
		Members: []SnapshotMember{
			{FileID: "b", Version: 2, Bytes: 10},
			{FileID: "a", Version: 1, Bytes: 5},
		},
	}
	if err := s.PutSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetSnapshot(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Members come back sorted, total computed.
	if len(got.Members) != 2 || got.Members[0].FileID != "a" || got.TotalBytes != 15 {
		t.Fatalf("snapshot round trip = %+v", got)
	}
	if err := s.PutSnapshot(&Snapshot{ID: "another"}); err != nil {
		t.Fatal(err)
	}
	ids, err := s.Snapshots()
	if err != nil || len(ids) != 2 || ids[0] != "2026-07-06T00:00" {
		t.Fatalf("Snapshots = %v, %v", ids, err)
	}
	if err := s.DeleteSnapshot(snap.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetSnapshot(snap.ID); err == nil {
		t.Fatal("deleted snapshot loads")
	}
	if err := s.PutSnapshot(&Snapshot{}); err == nil {
		t.Fatal("snapshot without ID accepted")
	}
}
