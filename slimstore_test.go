package slimstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/leakcheck"
	"slimstore/internal/oss"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 256 << 10
	cfg.SegmentChunks = 64
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 2
	return cfg
}

func genData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := genData(1, 2<<20)
	st, err := sys.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Optimize(st); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sys.Restore("f", st.Version, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("round trip corrupt")
	}
	files, err := sys.Files()
	if err != nil || len(files) != 1 || files[0] != "f" {
		t.Fatalf("Files = %v, %v", files, err)
	}
	vs, err := sys.Versions("f")
	if err != nil || len(vs) != 1 {
		t.Fatalf("Versions = %v, %v", vs, err)
	}
	u, err := sys.SpaceUsage()
	if err != nil {
		t.Fatal(err)
	}
	if u.ContainerBytes == 0 || u.RecipeBytes == 0 || u.TotalBytes < u.ContainerBytes {
		t.Fatalf("space usage: %+v", u)
	}
}

// TestSpaceUsageCoversEveryNamespace: SpaceUsage accounts for every object
// in the repository — with the erasure-coded tier on, the container bytes
// live under ec/, not containers/.
func TestSpaceUsageCoversEveryNamespace(t *testing.T) {
	for _, ec := range []bool{false, true} {
		cfg := smallConfig()
		if ec {
			cfg.ECDataShards, cfg.ECParityShards = 4, 2
		}
		mem := oss.NewMem()
		sys, err := Open(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		const logical = 2 << 20
		st, err := sys.Backup("f", genData(2, logical))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sys.Optimize(st); err != nil {
			t.Fatal(err)
		}
		u, err := sys.SpaceUsage()
		if err != nil {
			t.Fatal(err)
		}
		if u.TotalBytes != mem.TotalBytes() {
			t.Errorf("ec=%v: TotalBytes = %d, the store holds %d", ec, u.TotalBytes, mem.TotalBytes())
		}
		if u.ContainerBytes < logical || (ec && u.ContainerBytes < logical*6/4) {
			t.Errorf("ec=%v: ContainerBytes = %d for %d unique logical bytes", ec, u.ContainerBytes, logical)
		}
		if sum := u.ContainerBytes + u.RecipeBytes + u.IndexBytes; sum > u.TotalBytes || u.RecipeBytes == 0 || u.IndexBytes == 0 {
			t.Errorf("ec=%v: usage = %+v", ec, u)
		}
	}
}

func TestConcurrentJobsAcrossLNodes(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.NewEngine(EngineOptions{LNodes: 4})
	defer eng.Close()

	const jobs = 8
	datas := make([][]byte, jobs)
	backups := make([]Job, jobs)
	for i := range backups {
		datas[i] = genData(int64(10+i), 1<<20)
		backups[i] = Job{Kind: JobBackup, FileID: fmt.Sprintf("file%d", i), Data: datas[i]}
	}
	for i, r := range eng.Run(context.Background(), backups) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	// Concurrent restores on the callers' goroutines: the facade's one
	// L-node is shared, not pooled.
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := sys.Restore(fmt.Sprintf("file%d", i), 0, &buf); err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(buf.Bytes(), datas[i]) {
				errs[i] = fmt.Errorf("file%d corrupt", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
	}
}

func TestDeleteVersionThroughFacade(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d0 := genData(20, 1<<20)
	d1 := append(append([]byte{}, genData(21, 512<<10)...), d0[512<<10:]...)
	if _, err := sys.Backup("f", d0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Backup("f", d1); err != nil {
		t.Fatal(err)
	}
	before, _ := sys.SpaceUsage()
	if _, err := sys.DeleteVersion("f", 0); err != nil {
		t.Fatal(err)
	}
	after, _ := sys.SpaceUsage()
	if after.TotalBytes > before.TotalBytes {
		t.Fatalf("space grew after delete: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	var buf bytes.Buffer
	if _, err := sys.Restore("f", 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), d1) {
		t.Fatal("surviving version corrupt")
	}
	if _, err := sys.Restore("f", 0, &bytes.Buffer{}); err == nil {
		t.Fatal("deleted version restorable")
	}
}

func TestAuditOnHealthySystem(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.Backup("f", genData(30, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Optimize(st); err != nil {
		t.Fatal(err)
	}
	audit, err := sys.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if audit.ContainersSwept != 0 {
		t.Fatalf("audit swept %d containers on a healthy system", audit.ContainersSwept)
	}
}

func TestOpenDirectory(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDirectory(dir, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := genData(40, 512<<10)
	if _, err := sys.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	// Reopen: state persisted on disk.
	sys2, err := OpenDirectory(dir, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sys2.Restore("f", 0, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("disk-backed round trip corrupt")
	}
}

func TestBackupAllAndVerify(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 6; i++ {
		files[fmt.Sprintf("batch/file%d", i)] = genData(int64(60+i), 512<<10)
	}
	stats, err := sys.BackupAll(files, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(files) {
		t.Fatalf("got %d stats, want %d", len(stats), len(files))
	}
	if err := sys.OptimizeAll(stats); err != nil {
		t.Fatal(err)
	}
	for id, data := range files {
		st, err := sys.Verify(id, 0)
		if err != nil {
			t.Fatalf("verify %s: %v", id, err)
		}
		if st.Bytes != int64(len(data)) {
			t.Fatalf("verify %s: %d bytes, want %d", id, st.Bytes, len(data))
		}
		var buf bytes.Buffer
		if _, err := sys.Restore(id, 0, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("%s corrupt after batch backup", id)
		}
	}
}

// TestBackupAllDeterministicLayout: BackupAll dispatches in sorted file-ID
// order, so with one worker the shared container-ID counter hands every
// file the same containers on every run.
func TestBackupAllDeterministicLayout(t *testing.T) {
	files := map[string][]byte{}
	for i := 0; i < 12; i++ {
		files[fmt.Sprintf("batch/file%02d", i)] = genData(int64(80+i), 300<<10)
	}
	run := func() map[string]*BackupStats {
		sys, err := OpenMemory(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sys.BackupAll(files, 1)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	for id := range files {
		if len(a[id].NewContainers) == 0 || !reflect.DeepEqual(a[id].NewContainers, b[id].NewContainers) {
			t.Errorf("%s: containers %v on one fresh system, %v on another", id, a[id].NewContainers, b[id].NewContainers)
		}
	}
}

// flakyHandler answers 503 to the first two requests of every third
// distinct path it sees and passes everything else through, counting the
// 404s each path answered.
type flakyHandler struct {
	next http.Handler

	mu       sync.Mutex
	seen     map[string]int // path -> requests so far
	flaky    map[string]bool
	notFound map[string]int
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (h *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	h.mu.Lock()
	if _, ok := h.seen[path]; !ok && len(h.seen)%3 == 2 {
		h.flaky[path] = true
	}
	h.seen[path]++
	fail := h.flaky[path] && h.seen[path] <= 2
	h.mu.Unlock()
	if fail {
		http.Error(w, "try again", http.StatusServiceUnavailable)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	h.next.ServeHTTP(rec, r)
	if rec.code == http.StatusNotFound {
		h.mu.Lock()
		h.notFound[path]++
		h.mu.Unlock()
	}
}

func TestSystemOverHTTP(t *testing.T) {
	// A full deployment against the HTTP object-store server: the
	// multi-process topology of cmd/ossserver, in-process — behind a front
	// that drops requests the way a real one does. OpenHTTP's retry layer
	// must absorb the 503s.
	backend := NewMemoryStore()
	flaky := &flakyHandler{
		next: oss.NewServer(backend),
		seen: map[string]int{}, flaky: map[string]bool{}, notFound: map[string]int{},
	}
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	sys, err := OpenHTTP(srv.URL, srv.Client(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := genData(70, 1<<20)
	st, err := sys.Backup("remote/file", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Optimize(st); err != nil {
		t.Fatal(err)
	}

	// A second System (another process in the paper's deployment) sees
	// the same repository through the same server.
	sys2, err := OpenHTTP(srv.URL, srv.Client(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sys2.Restore("remote/file", 0, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("cross-process HTTP round trip corrupt")
	}
	if _, err := sys2.Verify("remote/file", 0); err != nil {
		t.Fatal(err)
	}
	if len(flaky.flaky) == 0 {
		t.Fatal("fixture: no request was answered 503")
	}

	// Not-found is permanent: a missing version fails on the first 404 of
	// each key it asks for, without burning the retry budget.
	flaky.mu.Lock()
	flaky.notFound = map[string]int{}
	flaky.mu.Unlock()
	if _, err := sys2.Restore("remote/file", 7, &buf); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("restore of a missing version: err = %v, want not-found", err)
	}
	if len(flaky.notFound) == 0 {
		t.Fatal("fixture: the missing version answered no 404")
	}
	for path, n := range flaky.notFound {
		if n != 1 {
			t.Errorf("%s answered 404 %d times: not-found was retried", path, n)
		}
	}
}

func TestSnapshotLifecycle(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mkFiles := func(seed int64) map[string][]byte {
		out := map[string][]byte{}
		for i := 0; i < 3; i++ {
			out[fmt.Sprintf("vol/file%d", i)] = genData(seed+int64(i), 512<<10)
		}
		return out
	}

	day1 := mkFiles(100)
	snap1, err := sys.BackupSnapshot("day1", day1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap1.Members) != 3 || snap1.TotalBytes != 3*512<<10 {
		t.Fatalf("snapshot = %+v", snap1)
	}

	// Day 2: light mutations of the same files.
	day2 := map[string][]byte{}
	for id, data := range day1 {
		d := append([]byte{}, data...)
		copy(d[:128], genData(777, 128))
		day2[id] = d
	}
	if _, err := sys.BackupSnapshot("day2", day2, 2); err != nil {
		t.Fatal(err)
	}

	ids, err := sys.Snapshots()
	if err != nil || len(ids) != 2 || ids[0] != "day1" || ids[1] != "day2" {
		t.Fatalf("Snapshots = %v, %v", ids, err)
	}

	// Restore day1 as a unit, one job at a time and four wide, and compare
	// every member.
	var restored map[string]*bytes.Buffer
	open := func(fileID string) (io.Writer, error) {
		b := &bytes.Buffer{}
		restored[fileID] = b
		return b, nil
	}
	for _, workers := range []int{1, 4} {
		restored = map[string]*bytes.Buffer{}
		if err := sys.RestoreSnapshot("day1", open, workers); err != nil {
			t.Fatal(err)
		}
		for id, want := range day1 {
			if !bytes.Equal(restored[id].Bytes(), want) {
				t.Fatalf("workers=%d: snapshot member %s corrupt", workers, id)
			}
		}
	}

	// Expire day1; day2 must survive intact.
	if err := sys.DeleteSnapshot("day1"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := sys.Snapshots(); len(ids) != 1 || ids[0] != "day2" {
		t.Fatalf("Snapshots after delete = %v", ids)
	}
	if _, err := sys.SnapshotInfo("day1"); err == nil {
		t.Fatal("deleted snapshot still loads")
	}
	restored = map[string]*bytes.Buffer{}
	if err := sys.RestoreSnapshot("day2", open, 0); err != nil {
		t.Fatal(err)
	}
	for id, want := range day2 {
		if !bytes.Equal(restored[id].Bytes(), want) {
			t.Fatalf("surviving snapshot member %s corrupt", id)
		}
	}
}

// TestQueueOptimizeBackground: background G-node work is a job on an
// engine — Submit returns at once with a ticket, the ticket carries the
// pass's stats.
func TestQueueOptimizeBackground(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sys.NewEngine(EngineOptions{LNodes: 1})
	defer eng.Close()
	data := genData(200, 1<<20)
	st, err := sys.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(context.Background(), Job{
		Kind: JobOptimize, FileID: st.FileID, Version: st.Version,
		NewContainers: st.NewContainers, Sparse: st.SparseContainers,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err != nil || res.Reverse == nil || res.SCC == nil || res.Reverse.IndexInserts == 0 {
		t.Fatalf("optimize job = %+v", res)
	}
	if es := eng.Stats(); es.Completed != 1 || es.Failed != 0 {
		t.Fatalf("engine stats = %+v", es)
	}
	var buf bytes.Buffer
	if _, err := sys.Restore("f", 0, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restore corrupt after background optimize")
	}
}

func TestMetricsAndNamespaces(t *testing.T) {
	base := NewMemoryStore()
	// Two tenants share one physical store but see isolated systems.
	sysA, err := Open(NamespacedStore(base, "tenantA"), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := Open(NamespacedStore(base, "tenantB"), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dataA := genData(300, 512<<10)
	if _, err := sysA.Backup("shared-name", dataA); err != nil {
		t.Fatal(err)
	}
	dataB := genData(301, 512<<10)
	if _, err := sysB.Backup("shared-name", dataB); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sysA.Restore("shared-name", 0, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), dataA) {
		t.Fatal("tenant A sees tenant B's data")
	}
	filesB, _ := sysB.Files()
	if len(filesB) != 1 {
		t.Fatalf("tenant B files = %v", filesB)
	}

	m, err := sysA.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Files != 1 || m.Versions != 1 || m.Containers == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Space.TotalBytes == 0 {
		t.Fatal("metrics space empty")
	}
}

func TestRestoreRangeFacade(t *testing.T) {
	sys, err := OpenMemory(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := genData(310, 1<<20)
	if _, err := sys.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := sys.RestoreRange("f", 0, 100<<10, 64<<10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data[100<<10:164<<10]) {
		t.Fatal("facade range restore corrupt")
	}
	if st.Bytes != 64<<10 {
		t.Fatalf("range bytes = %d", st.Bytes)
	}
}

// TestDroppedSystemLeavesNoGoroutine: a System has no Close, so it must
// need none — ten handles opened, used and dropped leave the process with
// the goroutines it started with.
func TestDroppedSystemLeavesNoGoroutine(t *testing.T) {
	leakcheck.Settled(t) // earlier tests' stragglers are not this test's
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		sys, err := OpenMemory(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Backup("f", genData(int64(320+i), 1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	leakcheck.Settled(t)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before ten dropped handles, %d after", before, after)
	}
}
