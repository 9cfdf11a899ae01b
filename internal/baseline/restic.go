package baseline

import (
	"fmt"
	"sync"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// Restic reproduces the architecture of the restic-over-OSSFS comparator
// in §VII-E: content-defined chunking with ~1 MiB chunks, pack files on
// object storage, and one repository-wide fingerprint index that every job
// must lock for lookups and updates.
//
// That single shared index is the property the paper measures: concurrent
// backup jobs serialise on it, capping aggregate backup throughput
// (~170 MB/s in the paper) regardless of job count, and restores serialise
// on index lookups for data locations (~102 MB/s). The serialised index
// work is charged to a shared virtual account; the scaling harness
// computes aggregate elapsed time as max(longest job, serialised index
// time), which yields the flat scaling curve of Fig 10.
type Restic struct {
	store oss.Store
	costs simclock.Costs
	cut   chunker.Cutter

	// IndexOpBackup and IndexOpRestore are the serialised per-chunk index
	// costs (lookup+update through the OSSFS-backed index in the paper's
	// setup). They bound aggregate throughput at chunkSize/op.
	IndexOpBackup  time.Duration
	IndexOpRestore time.Duration

	mu       sync.Mutex // THE lock: one index, all jobs
	index    map[fingerprint.FP]fpSize
	versions map[string]int
	lockAcct *simclock.Account // serialised index time across all jobs

	containers *container.Store
}

// NewRestic opens a restic-style repository over an OSS store. Chunk
// parameters default to restic's ~1 MiB average when params is zero.
func NewRestic(store oss.Store, costs simclock.Costs, params chunker.Params, packCap int) (*Restic, error) {
	if params == (chunker.Params{}) {
		params = chunker.ParamsForAvg(1 << 20)
	}
	cut, err := chunker.New("fastcdc", params)
	if err != nil {
		return nil, err
	}
	if packCap <= 0 {
		packCap = 16 << 20
	}
	cs, err := container.NewStore(store, packCap)
	if err != nil {
		return nil, err
	}
	return &Restic{
		store:          store,
		costs:          costs,
		cut:            cut,
		IndexOpBackup:  5800 * time.Microsecond,
		IndexOpRestore: 9800 * time.Microsecond,
		index:          make(map[fingerprint.FP]fpSize),
		versions:       make(map[string]int),
		lockAcct:       simclock.NewAccount(),
		containers:     cs,
	}, nil
}

// Name implements System.
func (r *Restic) Name() string { return "restic" }

// LockAccount exposes the serialised index account; the harness uses it to
// compute aggregate elapsed time across concurrent jobs.
func (r *Restic) LockAccount() *simclock.Account { return r.lockAcct }

func (r *Restic) snapshotKey(fileID string, version int) string {
	return fmt.Sprintf("restic/snapshots/%x/%08d", fileID, version)
}

// Backup implements System.
func (r *Restic) Backup(fileID string, data []byte) (*Result, error) {
	acct := simclock.NewAccount()
	metered := oss.NewMetered(r.store, r.costs, acct)
	cs := r.containers.View(metered)
	builder := container.NewBuilder(cs)

	res := &Result{FileID: fileID, LogicalBytes: int64(len(data)), Account: acct}
	r.mu.Lock()
	res.Version = r.versions[fileID]
	r.versions[fileID] = res.Version + 1
	r.mu.Unlock()

	var out []fpSize
	stream := chunker.NewStream(data, r.cut, acct, r.costs)
	for {
		ch, ok := stream.Next()
		if !ok {
			break
		}
		fp := fingerprint.Of(fingerprint.SHA256, ch.Data) // restic uses SHA-256
		acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(ch.Size()), r.costs.SHA256PerByte)

		// Serialised index section: every job contends on this lock, and
		// the per-op cost accrues on the shared account.
		r.mu.Lock()
		e, dup := r.index[fp]
		if !dup {
			// Store happens outside the lock in real restic; the index
			// registration is what serialises. Reserve the entry here.
			e = fpSize{fp: fp, size: uint32(ch.Size())}
		}
		r.lockAcct.ChargeCPU(simclock.PhaseIndexQuery, r.IndexOpBackup)
		acct.ChargeCPU(simclock.PhaseIndexQuery, r.costs.IndexLookup)
		r.mu.Unlock()

		if dup {
			res.DuplicateBytes += int64(ch.Size())
		} else {
			id, err := builder.Add(fp, ch.Data)
			if err != nil {
				return nil, err
			}
			e.id = id
			res.StoredBytes += int64(ch.Size())
			r.mu.Lock()
			r.index[fp] = e
			r.mu.Unlock()
		}
		out = append(out, e)
		res.NumChunks++
	}
	if err := builder.Flush(); err != nil {
		return nil, err
	}
	if err := metered.Put(r.snapshotKey(fileID, res.Version), encodeBlock(out)); err != nil {
		return nil, err
	}
	res.Elapsed = acct.ElapsedPipelined()
	return res, nil
}

// RestoreResult reports one restic restore job.
type RestoreResult struct {
	Bytes   int64
	Cache   cache.Stats
	Account *simclock.Account
	Elapsed time.Duration
}

// Restore reads a snapshot back, serialising on the index for every chunk
// location lookup (the bottleneck the paper measures in Fig 10b), with a
// plain LRU pack cache.
func (r *Restic) Restore(fileID string, version int, emit func([]byte) error) (*RestoreResult, error) {
	acct := simclock.NewAccount()
	metered := oss.NewMetered(r.store, r.costs, acct)
	cs := r.containers.View(metered)

	b, err := r.store.Get(r.snapshotKey(fileID, version))
	if err != nil {
		return nil, fmt.Errorf("restic: restore %s v%d: %w", fileID, version, err)
	}
	fps := decodeBlock(b)
	seq := make([]cache.Request, 0, len(fps))
	for _, e := range fps {
		// Location lookup through the shared index.
		r.mu.Lock()
		r.lockAcct.ChargeCPU(simclock.PhaseIndexQuery, r.IndexOpRestore)
		r.mu.Unlock()
		seq = append(seq, cache.Request{FP: e.fp, Container: e.id, Size: e.size})
	}

	policy := cache.NewLRU(cache.Config{MemBytes: 256 << 20})
	stats, err := policy.Restore(seq, func(id container.ID) (*container.Container, error) {
		return cs.Read(id)
	}, func(data []byte) error {
		acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(data)), r.costs.RestorePerByte)
		return emit(data)
	})
	if err != nil {
		return nil, err
	}
	return &RestoreResult{
		Bytes:   stats.LogicalBytes,
		Cache:   stats,
		Account: acct,
		Elapsed: acct.ElapsedSequential(),
	}, nil
}
