package jobs

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

// The engine's lifecycle contract. Every test positions the engine with a
// gate store that holds one backup's last request (the catalog entry of
// the file it names) until the test opens it — the worker is then provably
// mid-job — so nothing here sleeps or compares durations; the only clock
// is the hang timeout.

// gateStore is a store under a recorder that can hold the Put that
// completes one file's backup.
type gateStore struct {
	rec oss.Recorder

	mu      sync.Mutex
	holdKey string        // prefix of the Put to hold; "" = none
	held    chan struct{} // closed when that Put has arrived
	release chan struct{} // closed by open
}

// hold makes the store hold the next backup of fileID at its catalog put
// until open; the returned channel is closed when the put has arrived.
func (g *gateStore) hold(fileID string) <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.holdKey = "catalog/" + hex.EncodeToString([]byte(fileID)) + "/"
	g.held, g.release = make(chan struct{}), make(chan struct{})
	return g.held
}

// open releases the held put (or disarms the hold, if it has not arrived).
func (g *gateStore) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.holdKey = ""
	if g.release != nil {
		close(g.release)
		g.release = nil
	}
}

// Do implements oss.Layer.
func (g *gateStore) Do(op oss.Op, next oss.Store) (oss.Op, error) {
	g.mu.Lock()
	var held, release chan struct{}
	if op.Kind == oss.KindPut && g.holdKey != "" && strings.HasPrefix(op.Key, g.holdKey) {
		held, release, g.holdKey = g.held, g.release, ""
	}
	g.mu.Unlock()
	if held != nil {
		close(held)
		<-release
	}
	return oss.Do(next, op)
}

const hangTimeout = 10 * time.Second

// awaitHeld blocks until the held backup has reached the gate.
func awaitHeld(t *testing.T, held <-chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(hangTimeout):
		t.Fatal("the held backup never reached its catalog put")
	}
}

// await returns the ticket's result, failing the test if it never comes.
func await(t *testing.T, tk *Ticket) Result {
	t.Helper()
	select {
	case <-tk.Done():
		return tk.Wait()
	case <-time.After(hangTimeout):
		t.Fatal("job did not complete")
		return Result{}
	}
}

// spinUntil yields until cond holds — for engine state that has no channel
// to wait on (Close having begun, a counter reaching a value).
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		runtime.Gosched()
	}
}

func newGatedEngine(t *testing.T, inner oss.Store, opts Options) (*Engine, *gateStore, *core.Repo) {
	t.Helper()
	g := &gateStore{}
	repo, err := core.OpenRepo(oss.With(inner, &g.rec, g), stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(repo, gnode.New(repo), opts), g, repo
}

func backupJob(i int) Job {
	return Job{Kind: Backup, FileID: fmt.Sprintf("f%d", i), Data: stressData(int64(100+i), 300<<10)}
}

func submit(t *testing.T, e *Engine, ctx context.Context, j Job) *Ticket {
	t.Helper()
	tk, err := e.Submit(ctx, j)
	if err != nil {
		t.Fatalf("submit %s %s: %v", j.Kind, j.FileID, err)
	}
	return tk
}

// TestCloseRunsQueuedJobsThenRefuses: Close, called while one job is
// mid-flight and the queue is full behind it, returns only after every one
// of them ran; afterwards Submit errors.
func TestCloseRunsQueuedJobsThenRefuses(t *testing.T) {
	eng, gate, _ := newGatedEngine(t, oss.NewMem(), Options{LNodes: 1, Queue: 3})
	ctx := context.Background()
	held := gate.hold("f0")
	tickets := []*Ticket{submit(t, eng, ctx, backupJob(0))}
	awaitHeld(t, held) // job 0 is on the worker, the queue is empty
	for i := 1; i <= 3; i++ {
		tickets = append(tickets, submit(t, eng, ctx, backupJob(i)))
	}

	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	// The queue is full, so a cancelled Submit can only return ctx.Err()
	// until Close has marked the engine closed.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	spinUntil(t, "Close has begun", func() bool {
		_, err := eng.Submit(cancelled, backupJob(9))
		return !errors.Is(err, context.Canceled)
	})
	select {
	case <-closed:
		t.Fatal("Close returned with a job in flight and three queued")
	default:
	}

	gate.open()
	select {
	case <-closed:
	case <-time.After(hangTimeout):
		t.Fatal("Close did not return")
	}
	for i, tk := range tickets {
		select {
		case <-tk.Done():
			if r := tk.Wait(); r.Err != nil || r.Backup == nil {
				t.Errorf("job %d: %+v", i, r)
			}
		default:
			t.Errorf("Close returned before queued job %d ran", i)
		}
	}
	if st := eng.Stats(); st.Submitted != 4 || st.Completed != 4 {
		t.Errorf("stats = %+v, want 4 submitted and completed", st)
	}
	if _, err := eng.Submit(ctx, backupJob(9)); err == nil {
		t.Error("Submit after Close succeeded")
	}
	eng.Close() // idempotent
}

// TestCancelledBeforeDequeue: a job whose context is cancelled while it
// waits in the queue is skipped, not run.
func TestCancelledBeforeDequeue(t *testing.T) {
	eng, gate, repo := newGatedEngine(t, oss.NewMem(), Options{LNodes: 1})
	defer eng.Close()
	held := gate.hold("f0")
	first := submit(t, eng, context.Background(), backupJob(0))
	awaitHeld(t, held)
	ctx, cancel := context.WithCancel(context.Background())
	queued := submit(t, eng, ctx, backupJob(1))
	cancel()
	gate.open()

	if r := await(t, first); r.Err != nil {
		t.Fatal(r.Err)
	}
	r := await(t, queued)
	if !errors.Is(r.Err, context.Canceled) || r.LNode != "" || r.Backup != nil {
		t.Errorf("cancelled job = %+v, want context.Canceled on no L-node", r)
	}
	if st := eng.Stats(); st.Cancelled != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v", st)
	}
	if vs, err := repo.Recipes.Versions("f1"); err != nil || len(vs) != 0 {
		t.Errorf("the cancelled backup ran: versions %v, %v", vs, err)
	}
}

// TestSubmitOnFullQueueHonoursCancel: the bounded queue is backpressure —
// with one job on the worker and one queued, a third Submit cannot return
// until a slot frees or its context is cancelled.
func TestSubmitOnFullQueueHonoursCancel(t *testing.T) {
	eng, gate, _ := newGatedEngine(t, oss.NewMem(), Options{LNodes: 1, Queue: 1})
	defer eng.Close()
	held := gate.hold("f0")
	defer gate.open()
	submit(t, eng, context.Background(), backupJob(0))
	awaitHeld(t, held)
	submit(t, eng, context.Background(), backupJob(1)) // fills the queue

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Submit(ctx, backupJob(2))
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("blocked Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(hangTimeout):
		t.Fatal("blocked Submit ignored its context")
	}
	if st := eng.Stats(); st.Submitted != 2 {
		t.Errorf("Submitted = %d, want 2", st.Submitted)
	}
}

// TestRunReturnsSubmissionOrder: results line up with the job list even
// when the first job is the last to finish.
func TestRunReturnsSubmissionOrder(t *testing.T) {
	const n = 5
	eng, gate, _ := newGatedEngine(t, oss.NewMem(), Options{LNodes: 2, Queue: n})
	defer eng.Close()
	js := make([]Job, n)
	for i := range js {
		js[i] = backupJob(i)
	}
	// Hold job 0 until the other four completed on the second worker.
	held := gate.hold("f0")
	go func() {
		<-held
		for eng.Stats().Completed < n-1 {
			runtime.Gosched()
		}
		gate.open()
	}()
	results := eng.Run(context.Background(), js)
	for i, r := range results {
		if r.Err != nil || r.Job.FileID != js[i].FileID || r.Backup == nil || r.Backup.FileID != js[i].FileID {
			t.Errorf("result %d = %+v, want the backup of %s", i, r, js[i].FileID)
		}
	}
}

// TestOptimizeRunsBesideBackupOfSameFile: the offline pass for v0 is
// submitted, runs and completes while v1 of the same file is still being
// backed up; afterwards every version restores byte-identically.
func TestOptimizeRunsBesideBackupOfSameFile(t *testing.T) {
	eng, gate, _ := newGatedEngine(t, oss.NewMem(), Options{LNodes: 2})
	defer eng.Close()
	ctx := context.Background()
	versions := [][]byte{stressData(80, 1<<20)}
	versions = append(versions, stressMutate(versions[0], 81))

	v0 := await(t, submit(t, eng, ctx, Job{Kind: Backup, FileID: "f", Data: versions[0]}))
	if v0.Err != nil {
		t.Fatal(v0.Err)
	}
	optimize := func(b *Result) Job {
		return Job{Kind: Optimize, FileID: "f", Version: b.Backup.Version,
			NewContainers: b.Backup.NewContainers, Sparse: b.Backup.SparseContainers}
	}
	held := gate.hold("f")
	backup1 := submit(t, eng, ctx, Job{Kind: Backup, FileID: "f", Data: versions[1]})
	awaitHeld(t, held)
	opt0 := await(t, submit(t, eng, ctx, optimize(&v0))) // completes with v1 still held
	select {
	case <-backup1.Done():
		t.Fatal("fixture: the second backup finished under a closed gate")
	default:
	}
	gate.open()
	v1 := await(t, backup1)
	if v1.Err != nil {
		t.Fatal(v1.Err)
	}
	opt1 := await(t, submit(t, eng, ctx, optimize(&v1)))
	for i, r := range []Result{opt0, opt1} {
		if r.Err != nil || r.Reverse == nil || r.SCC == nil {
			t.Fatalf("optimize v%d = %+v", i, r)
		}
	}
	if opt0.Reverse.IndexInserts == 0 {
		t.Error("background reverse dedup registered nothing")
	}

	bufs := make([]bytes.Buffer, len(versions))
	restores := make([]Job, len(versions))
	for v := range versions {
		restores[v] = Job{Kind: Restore, FileID: "f", Version: v, Out: &bufs[v]}
	}
	for v, r := range eng.Run(ctx, restores) {
		if r.Err != nil || !bytes.Equal(bufs[v].Bytes(), versions[v]) {
			t.Errorf("version %d after background optimize: err = %v, bytes equal = %v", v, r.Err, bytes.Equal(bufs[v].Bytes(), versions[v]))
		}
	}
}

// TestRestoreRunsBesideBackupOfSameFile: a restore and a verify of v0
// take no file lock, so both complete, byte-exact, while the backup of v1
// of the same file is held at its catalog put.
func TestRestoreRunsBesideBackupOfSameFile(t *testing.T) {
	eng, gate, _ := newGatedEngine(t, oss.NewMem(), Options{LNodes: 2})
	defer eng.Close()
	ctx := context.Background()
	v0 := stressData(90, 1<<20)
	if r := await(t, submit(t, eng, ctx, Job{Kind: Backup, FileID: "f", Data: v0})); r.Err != nil {
		t.Fatal(r.Err)
	}
	held := gate.hold("f")
	defer gate.open()
	backup1 := submit(t, eng, ctx, Job{Kind: Backup, FileID: "f", Data: stressMutate(v0, 91)})
	awaitHeld(t, held)
	var buf bytes.Buffer
	restore := await(t, submit(t, eng, ctx, Job{Kind: Restore, FileID: "f", Version: 0, Out: &buf}))
	verify := await(t, submit(t, eng, ctx, Job{Kind: Verify, FileID: "f", Version: 0}))
	if err := errors.Join(restore.Err, verify.Err); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v0) || verify.Restore.Bytes != int64(len(v0)) {
		t.Fatalf("beside the held backup: restore bytes equal = %v, verified %d of %d bytes",
			bytes.Equal(buf.Bytes(), v0), verify.Restore.Bytes, len(v0))
	}
	select {
	case <-backup1.Done():
		t.Fatal("fixture: the second backup finished under a closed gate")
	default:
	}
	gate.open()
	if r := await(t, backup1); r.Err != nil || r.Backup.Version != 1 {
		t.Fatalf("held backup = %+v", r)
	}
}

// TestQueuedScrubFindsFlippedChunk: a scrub submitted as a job reports the
// corruption in its ticket.
func TestQueuedScrubFindsFlippedChunk(t *testing.T) {
	mem := oss.NewMem()
	eng, _, repo := newGatedEngine(t, mem, Options{LNodes: 1})
	defer eng.Close()
	ctx := context.Background()
	b := await(t, submit(t, eng, ctx, backupJob(0)))
	if b.Err != nil {
		t.Fatal(b.Err)
	}
	id := b.Backup.NewContainers[0]
	m, err := repo.Containers.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := mem.Get(container.DataKey(id))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a Get result is read-only; rot is a Put of changed bytes
	raw[m.Chunks[0].Offset+m.Chunks[0].Size/2] ^= 0xFF
	if err := mem.Put(container.DataKey(id), raw); err != nil {
		t.Fatal(err)
	}

	r := await(t, submit(t, eng, ctx, Job{Kind: Scrub}))
	if r.Err != nil || r.Scrub == nil || r.Scrub.CorruptChunks != 1 {
		t.Fatalf("queued scrub = %+v (%+v), want one corrupt chunk", r, r.Scrub)
	}
}

// TestOptimizeStopsAtReverseDedupFailure: when reverse dedup fails, the
// job fails with that error and SCC never starts — it would begin by
// reading the version's recipe.
func TestOptimizeStopsAtReverseDedupFailure(t *testing.T) {
	mem := oss.NewMem()
	seed, _, _ := newGatedEngine(t, mem, Options{LNodes: 1})
	b := await(t, submit(t, seed, context.Background(), backupJob(0)))
	seed.Close()
	if b.Err != nil {
		t.Fatal(b.Err)
	}

	// A second process (cold metadata cache) whose store cannot read the
	// new container's metadata.
	faulty := oss.NewFaulty(mem)
	faulty.FailGet(container.MetaKey(b.Backup.NewContainers[0]))
	eng, gate, _ := newGatedEngine(t, faulty, Options{LNodes: 1})
	defer eng.Close()
	r := await(t, submit(t, eng, context.Background(), Job{
		Kind: Optimize, FileID: "f0", Version: 0,
		NewContainers: b.Backup.NewContainers, Sparse: b.Backup.NewContainers,
	}))
	if !errors.Is(r.Err, oss.ErrInjected) || r.Reverse != nil || r.SCC != nil {
		t.Fatalf("optimize = %+v, want the injected reverse-dedup failure and no stats", r)
	}
	if reads := gate.rec.Requests(func(op oss.Op) bool { return strings.HasPrefix(op.Key, "recipes/") }); len(reads) != 0 {
		t.Errorf("SCC ran after reverse dedup failed: %v", reads)
	}
	if st := eng.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
}
