package baseline

import (
	"fmt"
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// HAR implements the history-aware rewriting of Fu et al. (ATC'14): the
// backup of version N counts each container's utilization from N's point
// of view; containers below the threshold are recorded as sparse, and
// during the backup of version N+1 any duplicate chunk whose copy lives in
// one of N's sparse containers is rewritten (stored again) instead of
// referenced. The benefit therefore lands one version late — the paper's
// §V-B contrasts this with SLIMSTORE's SCC, which repairs the current
// version immediately.
//
// Deduplication itself uses an exact in-memory fingerprint index (the HAR
// paper's setting: a dedicated backup server holding the full index); the
// Fig 8 comparisons measure the *container layout* HAR produces, restored
// through the OPT/LAW cache.
type HAR struct {
	store oss.Store
	costs simclock.Costs
	cut   chunker.Cutter

	utilThreshold float64

	mu         sync.Mutex
	index      map[fingerprint.FP]fpSize
	sparse     map[string]map[container.ID]bool // per-file sparse set from the previous version
	chunkCount map[container.ID]int
	versions   map[string]int
	containers *container.Store
}

// NewHAR opens a HAR repository over an OSS store.
func NewHAR(store oss.Store, costs simclock.Costs, params chunker.Params, containerCap int, utilThreshold float64) (*HAR, error) {
	cut, err := chunker.New("fastcdc", params)
	if err != nil {
		return nil, err
	}
	cs, err := container.NewStore(store, containerCap)
	if err != nil {
		return nil, err
	}
	if utilThreshold <= 0 {
		utilThreshold = 0.3
	}
	return &HAR{
		store:         store,
		costs:         costs,
		cut:           cut,
		utilThreshold: utilThreshold,
		index:         make(map[fingerprint.FP]fpSize),
		sparse:        make(map[string]map[container.ID]bool),
		chunkCount:    make(map[container.ID]int),
		versions:      make(map[string]int),
		containers:    cs,
	}, nil
}

// Name implements System.
func (h *HAR) Name() string { return "har" }

func (h *HAR) recipeKey(fileID string, version int) string {
	return fmt.Sprintf("har/recipes/%x/%08d", fileID, version)
}

// HARResult extends Result with rewriting counters.
type HARResult struct {
	Result
	RewrittenBytes  int64
	RewrittenChunks int
	SparseDetected  int
}

// Backup deduplicates one version, rewriting chunks from the previous
// version's sparse containers.
func (h *HAR) Backup(fileID string, data []byte) (*Result, error) {
	r, err := h.BackupHAR(fileID, data)
	if err != nil {
		return nil, err
	}
	return &r.Result, nil
}

// BackupHAR is Backup with the HAR-specific counters.
func (h *HAR) BackupHAR(fileID string, data []byte) (*HARResult, error) {
	acct := simclock.NewAccount()
	metered := oss.NewMetered(h.store, h.costs, acct)
	cs := h.containers.View(metered)
	builder := container.NewBuilder(cs)

	res := &HARResult{Result: Result{FileID: fileID, LogicalBytes: int64(len(data)), Account: acct}}
	h.mu.Lock()
	res.Version = h.versions[fileID]
	h.versions[fileID] = res.Version + 1
	sparse := h.sparse[fileID]
	h.mu.Unlock()

	var out []fpSize
	refs := make(map[container.ID]int)

	stream := chunker.NewStream(data, h.cut, acct, h.costs)
	for {
		ch, ok := stream.Next()
		if !ok {
			break
		}
		fp := fingerprint.OfBytes(ch.Data)
		acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(ch.Size()), h.costs.SHA1PerByte)
		acct.ChargeCPU(simclock.PhaseIndexQuery, h.costs.IndexLookup)

		h.mu.Lock()
		e, dup := h.index[fp]
		h.mu.Unlock()

		rewrite := dup && sparse != nil && sparse[e.id]
		if dup && !rewrite {
			res.DuplicateBytes += int64(ch.Size())
		} else {
			id, err := builder.Add(fp, ch.Data)
			if err != nil {
				return nil, err
			}
			e = fpSize{fp: fp, id: id, size: uint32(ch.Size())}
			res.StoredBytes += int64(ch.Size())
			h.mu.Lock()
			h.index[fp] = e
			h.chunkCount[id]++
			h.mu.Unlock()
			if rewrite {
				res.RewrittenBytes += int64(ch.Size())
				res.RewrittenChunks++
			}
		}
		out = append(out, e)
		refs[e.id]++
		res.NumChunks++
	}
	if err := builder.Flush(); err != nil {
		return nil, err
	}
	if err := metered.Put(h.recipeKey(fileID, res.Version), encodeBlock(out)); err != nil {
		return nil, err
	}

	// Utilization pass: record this version's sparse containers for the
	// NEXT backup (the HAR timing).
	newSparse := make(map[container.ID]bool)
	h.mu.Lock()
	for id, used := range refs {
		total := h.chunkCount[id]
		if total > 0 && float64(used)/float64(total) < h.utilThreshold {
			newSparse[id] = true
		}
	}
	h.sparse[fileID] = newSparse
	h.mu.Unlock()
	res.SparseDetected = len(newSparse)

	res.Elapsed = acct.ElapsedPipelined()
	return res, nil
}

// Sequence loads the restore request sequence of a version, for driving a
// cache policy (the harness pairs HAR with cache.NewOPT as in the paper).
func (h *HAR) Sequence(fileID string, version int) ([]cache.Request, error) {
	b, err := h.store.Get(h.recipeKey(fileID, version))
	if err != nil {
		return nil, fmt.Errorf("har: sequence %s v%d: %w", fileID, version, err)
	}
	fps := decodeBlock(b)
	seq := make([]cache.Request, 0, len(fps))
	for _, e := range fps {
		seq = append(seq, cache.Request{FP: e.fp, Container: e.id, Size: e.size})
	}
	return seq, nil
}

// Fetcher returns a container fetcher charging acct.
func (h *HAR) Fetcher(acct *simclock.Account) cache.Fetcher {
	cs := h.containers.View(oss.NewMetered(h.store, h.costs, acct))
	return func(id container.ID) (*container.Container, error) {
		return cs.Read(id)
	}
}
