package lnode

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// recut makes step2 forget the head probe's cuts, which is what every job
// did before head reuse: STEP 2 cuts and fingerprints the version from
// byte 0. It is the reference TestHeadReuseTwin holds the product to.
func recut(step2 func(*backupJob) error) func(*backupJob) error {
	return func(j *backupJob) error {
		j.head = headCuts{}
		return step2(j)
	}
}

// recutBackupStream is BackupStream as it was before head reuse: buffer the
// stream whenever skip chunking or chunk merging is on, otherwise read a
// headBytes head and stream the rest; re-cut the head either way.
func recutBackupStream(n *LNode, fileID string, rd io.Reader) (*BackupStats, error) {
	if n.repo.Config.SkipChunking || n.repo.Config.ChunkMerging {
		data, err := io.ReadAll(rd)
		if err != nil {
			return nil, err
		}
		return n.backup(fileID, window{data: data, eof: true}, recut((*backupJob).dedupe))
	}
	head := make([]byte, n.headBytes)
	hn, err := io.ReadFull(rd, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	head = head[:hn]
	return n.backup(fileID, window{data: head, rd: rd}, recut((*backupJob).dedupe))
}

// jobOutcome is everything a backup job reports: every BackupStats field
// and the account behind it, phase by phase.
type jobOutcome struct {
	stats BackupStats
	cpu   map[simclock.Phase]time.Duration
	io    simclock.IOStats
}

func outcomeOf(st *BackupStats) jobOutcome {
	o := jobOutcome{stats: comparableStats(st), cpu: map[simclock.Phase]time.Duration{}, io: st.Account.IO()}
	for _, p := range []simclock.Phase{simclock.PhaseChunking, simclock.PhaseFingerprint,
		simclock.PhaseIndexQuery, simclock.PhaseOther} {
		o.cpu[p] = st.Account.CPUPhase(p)
	}
	return o
}

// storeObjects reads every object on store.
func storeObjects(t *testing.T, store oss.Store) map[string][]byte {
	t.Helper()
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if out[k], err = store.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRecipeBytesTwin: the same two versions backed up into two fresh
// stores leave byte-identical objects under recipes/ — the recipe index
// included, whose samples live in a map and are encoded in fingerprint
// order. Scheduling must not show either: check.sh runs it at -cpu 1,4.
func TestRecipeBytesTwin(t *testing.T) {
	v0 := genData(3, 2<<20)
	v1 := mutate(v0, 4, 20)
	var twins [2]map[string][]byte
	for i := range twins {
		store := oss.NewMem()
		repo, err := core.OpenRepo(store, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		n := New(repo, "l0")
		for _, v := range [][]byte{v0, v1} {
			if _, err := n.Backup("f", v); err != nil {
				t.Fatal(err)
			}
		}
		twins[i] = map[string][]byte{}
		for k, b := range storeObjects(t, store) {
			if strings.HasPrefix(k, "recipes/") {
				twins[i][k] = b
			}
		}
	}
	sampled := 0
	for k, a := range twins[0] {
		if b, ok := twins[1][k]; !ok || !bytes.Equal(a, b) {
			t.Errorf("%s differs between two identical backups (%d vs %d bytes)", k, len(a), len(b))
		}
		if strings.HasSuffix(k, ".index") {
			idx, err := recipe.DecodeIndex(a)
			if err != nil {
				t.Fatal(err)
			}
			sampled += len(idx.Samples)
		}
	}
	if len(twins[0]) != len(twins[1]) || sampled < 16 {
		t.Fatalf("%d vs %d recipe objects holding %d samples; map order would not show", len(twins[0]), len(twins[1]), sampled)
	}
}

// nextVersion is a lightly edited successor of v, similar enough for the
// similarity index to find v as its base.
func nextVersion(v []byte, seed int64) []byte {
	if len(v) < 4096 {
		return append(bytes.Clone(v), genData(seed, 7)...)
	}
	return mutate(v, seed, 2)
}

type twinBackup struct {
	id   string
	data []byte
}

// TestHeadReuseTwin: a job that starts STEP 2 from the head probe's cuts
// leaves the same objects on the store and reports the same stats and
// virtual time, phase by phase, as one that cuts the head again — for every
// cutter, through Backup and BackupStream, with the history-aware
// accelerations on and off, with no base (the case that reuses), a
// similarity base and a name base (which must not), at version sizes on
// both sides of every seam: empty, one byte, below the minimum chunk, one
// byte either side of the head size and exactly it, two heads and an odd
// tail, and a version with a cut exactly headBytes−Max bytes in (the last
// offset whose lookahead still fits the head). The head is shrunk to 128 KiB
// so the matrix stays cheap; TestBackupStreamTwin runs the real size.
func TestHeadReuseTwin(t *testing.T) {
	t.Parallel()
	const testHead = 128 << 10
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		for _, accel := range []bool{true, false} {
			cfg := testConfig()
			cfg.ChunkAlgo = algo
			cfg.SkipChunking, cfg.ChunkMerging = accel, accel
			p := cfg.ChunkParams

			long := genData(17, 2*testHead+4097)
			// A head that ends exactly Max bytes after a cut of long.
			cutter, err := chunker.New(algo, p)
			if err != nil {
				t.Fatal(err)
			}
			exactHead := 0
			for _, ch := range chunker.SplitAll(long, cutter) {
				if ch.Offset >= testHead-int64(p.Max) {
					exactHead = int(ch.Offset) + p.Max
					break
				}
			}

			type sizeCase struct {
				name string
				head int
				v0   []byte
			}
			cases := []sizeCase{
				{"empty", testHead, nil},
				{"1B", testHead, long[:1]},
				{"below-min", testHead, long[:p.Min-1]},
				{"head-1", testHead, long[:testHead-1]},
				{"head", testHead, long[:testHead]},
				{"head+1", testHead, long[:testHead+1]},
				{"2head+odd", testHead, long},
				{"cut-at-head-max", exactHead, long},
			}
			for _, sc := range cases {
				v1 := nextVersion(sc.v0, 18)
				for _, scenario := range []struct {
					name    string
					backups []twinBackup
					baseBy  string // of the last backup, when the version is big enough to have one
				}{
					{"no-base", []twinBackup{{"f", sc.v0}}, "none"},
					{"similarity-base", []twinBackup{{"a", sc.v0}, {"b", v1}}, "similarity"},
					{"name-base", []twinBackup{{"f", sc.v0}, {"f", v1}}, "name"},
				} {
					for _, stream := range []bool{false, true} {
						name := fmt.Sprintf("%s/accel=%v/%s/%s/stream=%v", algo, accel, sc.name, scenario.name, stream)
						t.Run(name, func(t *testing.T) {
							run := func(reference bool) ([]jobOutcome, map[string][]byte) {
								store := oss.NewMem()
								repo, err := core.OpenRepo(store, cfg)
								if err != nil {
									t.Fatal(err)
								}
								n := New(repo, "l0")
								n.headBytes = sc.head // the seam between the probe's cuts and STEP 2's
								var outs []jobOutcome
								for _, b := range scenario.backups {
									var st *BackupStats
									switch {
									case stream && reference:
										st, err = recutBackupStream(n, b.id, bytes.NewReader(b.data))
									case stream:
										st, err = n.BackupStream(b.id, bytes.NewReader(b.data))
									case reference:
										st, err = n.backup(b.id, window{data: b.data, eof: true}, recut((*backupJob).dedupe))
									default:
										st, err = n.Backup(b.id, b.data)
									}
									if err != nil {
										t.Fatalf("backup %s (reference=%v): %v", b.id, reference, err)
									}
									outs = append(outs, outcomeOf(st))
								}
								last := scenario.backups[len(scenario.backups)-1]
								if got := restoreBytes(t, n, last.id, outs[len(outs)-1].stats.Version); !bytes.Equal(got, last.data) {
									t.Errorf("restore diverges from input (reference=%v)", reference)
								}
								return outs, storeObjects(t, store)
							}
							got, gotObjs := run(false)
							want, wantObjs := run(true)
							for i := range want {
								if !reflect.DeepEqual(got[i], want[i]) {
									t.Errorf("backup %d diverges:\nreuse: %+v\nrecut: %+v", i, got[i], want[i])
								}
							}
							// (Fixed-size cuts all move on an insert: no similarity to find.)
							if len(sc.v0) >= testHead-1 && algo != "fixed" && got[len(got)-1].stats.BaseBy != scenario.baseBy {
								t.Errorf("base found by %q, scenario wants %q", got[len(got)-1].stats.BaseBy, scenario.baseBy)
							}
							if len(gotObjs) != len(wantObjs) {
								t.Errorf("%d objects on the store, recut leaves %d", len(gotObjs), len(wantObjs))
							}
							for k, w := range wantObjs {
								if g, ok := gotObjs[k]; !ok || !bytes.Equal(g, w) {
									t.Errorf("object %s differs from the recut job's (present=%v)", k, ok)
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestReadUpTo: the head reader returns exactly the first limit bytes, says
// whether the stream ended inside them, continues a buffer it is handed, and
// keeps a short input's buffer short, however the reader slices its reads.
func TestReadUpTo(t *testing.T) {
	data := genData(1, 300<<10)
	readers := map[string]func(io.Reader) io.Reader{
		"plain":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"data+eof": iotest.DataErrReader,
		"half":     iotest.HalfReader,
	}
	for _, limit := range []int{0, 1, 64 << 10, 64<<10 + 1, 200 << 10, len(data), len(data) + 1, math.MaxInt} {
		for name, wrap := range readers {
			got, eof, err := readUpTo(wrap(bytes.NewReader(data)), nil, limit)
			want := data[:min(limit, len(data))]
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("limit %d/%s: %d bytes, err %v; want the first %d", limit, name, len(got), err, len(want))
			}
			if (limit > len(data) && !eof) || (limit < len(data) && eof) {
				t.Errorf("limit %d/%s: eof=%v over a %d-byte stream", limit, name, eof, len(data))
			}
			if cap(got) > max(64<<10, 2*len(want)) {
				t.Errorf("limit %d/%s: a %d-byte buffer for %d bytes", limit, name, cap(got), len(want))
			}
		}
	}
	rd := bytes.NewReader(data)
	head, _, _ := readUpTo(rd, nil, 1000)
	if all, eof, err := readUpTo(rd, head, math.MaxInt); err != nil || !eof || !bytes.Equal(all, data) {
		t.Errorf("continuing behind a head: %d bytes, eof=%v, err %v", len(all), eof, err)
	}
	if _, _, err := readUpTo(io.MultiReader(bytes.NewReader(data[:10]), iotest.ErrReader(io.ErrClosedPipe)), nil, 100); err != io.ErrClosedPipe {
		t.Errorf("read error lost: %v", err)
	}
}

// onceCutter fails the test when an offset of version outside [free, freeEnd)
// is offered to Cut as a chunk start twice. The versions it sees are random,
// so the first bytes at an offset identify it.
type onceCutter struct {
	chunker.Cutter
	t             *testing.T
	version       []byte
	free, freeEnd int
	seen          map[string]bool
}

func (c *onceCutter) Cut(data []byte) int {
	key := data[:min(len(data), 32)]
	if c.seen[string(key)] {
		if off := bytes.Index(c.version, key); off < c.free || off >= c.freeEnd {
			c.t.Errorf("offset %d was offered to Cut as a chunk start twice", off)
		}
	}
	c.seen[string(key)] = true
	return c.Cutter.Cut(data)
}

// TestNoHistoryVersionIsCutOnce: with no base, an offset of the version is
// offered to the cutter as a chunk start once — the head probe's cuts are
// STEP 2's — through every STEP 2 body and at the real head size. The one
// exception is what the reuse rule leaves out: when the version is longer
// than the head, the probe still has to cut the head's last Max bytes for the
// similarity sketch, with a lookahead the head's end truncates, and STEP 2
// cuts those again. A version that ends with the head, exactly or earlier,
// has no such region.
func TestNoHistoryVersionIsCutOnce(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("cuts tens of MiB")
	}
	for _, accel := range []bool{true, false} {
		for _, size := range []int{1 << 20, headBytes - 1, headBytes, headBytes + 1, headBytes + 3<<20 + 5} {
			for _, stream := range []bool{false, true} {
				t.Run(fmt.Sprintf("accel=%v/size=%d/stream=%v", accel, size, stream), func(t *testing.T) {
					cfg := testConfig()
					cfg.SkipChunking, cfg.ChunkMerging = accel, accel
					n, _ := newNode(t, cfg)
					data := genData(int64(size), size)
					once := &onceCutter{t: t, version: data, seen: map[string]bool{}}
					if size > headBytes {
						once.free, once.freeEnd = headBytes-cfg.ChunkParams.Max+1, headBytes
					}
					n.wrapCutter = func(c chunker.Cutter) chunker.Cutter {
						cp := *once
						cp.Cutter = c
						return &cp
					}
					var st *BackupStats
					var err error
					if stream {
						st, err = n.BackupStream("f", bytes.NewReader(data))
					} else {
						st, err = n.Backup("f", data)
					}
					if err != nil {
						t.Fatal(err)
					}
					if st.BaseBy != "none" || st.LogicalBytes != int64(size) {
						t.Errorf("base by %q, %d logical bytes", st.BaseBy, st.LogicalBytes)
					}
				})
			}
		}
	}
}
