package core

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"slimstore/internal/container"
	"slimstore/internal/lockrank"
)

// This file is the repo's concurrency-control layer. The paper runs many
// stateless L-node jobs against one shared storage layer (§VII-E, six
// L-nodes, one OSS); when those jobs are goroutines in one process the
// shared substrate needs explicit synchronisation. Three lock families
// cover it, with a fixed acquisition order (see DESIGN.md §7):
//
//  1. the G-node maintenance mutex (a MaintLock, owned by gnode),
//  2. per-file writer locks — backup, SCC, deletion and scrub's repoint of
//     a file are exclusive; a restore takes none,
//  3. per-container striped RW locks — restores pin the containers they
//     read; physical rewrites/drops take the write side.
//
// A goroutine takes them in that order and at most one acquisition of each
// at a time; under a test, internal/lockrank panics on any acquisition out
// of rank and on a release by a goroutine that holds nothing of the rank.

// MaintLock is the G-node's maintenance mutex, the top of the order.
type MaintLock struct{ mu sync.Mutex }

// Lock acquires the maintenance mutex.
func (l *MaintLock) Lock() {
	lockrank.Acquire(lockrank.Maint)
	l.mu.Lock()
}

// Unlock releases the maintenance mutex.
func (l *MaintLock) Unlock() {
	lockrank.Release(lockrank.Maint)
	l.mu.Unlock()
}

// fileLockShards is the per-file lock-table stripe count. Two distinct
// files hashing to one stripe serialise unnecessarily; with jobs counted
// in dozens, 64 stripes make that vanishingly rare.
const fileLockShards = 64

// FileLocks serialises the writers of a backup file — backup, SCC,
// scrub's repoint, DeleteVersion — over version allocation and the base's
// catalog entry. A restore takes none: it pins what its one recipe object
// resolves to (DESIGN.md §7).
type FileLocks struct {
	shards [fileLockShards]sync.Mutex
}

func (l *FileLocks) shard(fileID string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(fileID))
	return &l.shards[h.Sum32()%fileLockShards]
}

// Lock acquires the lock for fileID.
func (l *FileLocks) Lock(fileID string) {
	lockrank.Acquire(lockrank.File)
	l.shard(fileID).Lock()
}

// Unlock releases the lock for fileID.
func (l *FileLocks) Unlock(fileID string) {
	lockrank.Release(lockrank.File)
	l.shard(fileID).Unlock()
}

// LockAll acquires every stripe, in index order, and returns a
// release function. FullSweep uses it as a stop-the-world barrier: a
// container written by an in-flight backup is unreachable until the recipe
// lands, and the sweep would reclaim it as garbage. Index order makes
// LockAll deadlock-free against per-file Lock (single-stripe acquisitions
// cannot form a cycle with an ordered sweep).
func (l *FileLocks) LockAll() (release func()) {
	lockrank.Acquire(lockrank.File)
	for i := range l.shards {
		l.shards[i].Lock()
	}
	return func() {
		lockrank.Release(lockrank.File)
		for i := range l.shards {
			l.shards[i].Unlock()
		}
	}
}

// containerLockShards stripes the container lock table. Restores pin
// whole stripes, so more stripes mean fewer false conflicts between a
// restore and an unrelated rewrite.
const containerLockShards = 128

// ContainerLocks is a striped reader/writer lock table over container
// IDs. It implements the protocol that lets online restore proceed while
// the G-node compacts: a restore read-pins every container its resolved
// sequence references for the duration of the restore; a physical rewrite
// (which replaces or deletes the data object) takes the write side of
// that container's stripe and therefore waits for in-flight restores.
// Metadata-only writes (deletion marks) do not need the write side: the
// global index is synced before marks land, so a reader that observes a
// mark redirects through the index, and one that does not still finds the
// bytes. Every write-side section bumps one counter before it releases its
// stripe, so a restore that samples Writes before resolving and finds it
// unchanged once pinned knows no container it pinned was written since.
type ContainerLocks struct {
	shards [containerLockShards]sync.RWMutex
	writes atomic.Uint64
}

func (l *ContainerLocks) shard(id container.ID) *sync.RWMutex {
	return &l.shards[uint64(id)%containerLockShards]
}

// Lock acquires the write side for one container (rewrite, drop,
// quarantine). Writers take one container at a time, so they can never
// deadlock against pinned readers.
func (l *ContainerLocks) Lock(id container.ID) {
	lockrank.Acquire(lockrank.Container)
	l.shard(id).Lock()
}

// Unlock counts the write-side section, then releases it: a pin that
// waited for the stripe sees the count moved.
func (l *ContainerLocks) Unlock(id container.ID) {
	l.writes.Add(1)
	lockrank.Release(lockrank.Container)
	l.shard(id).Unlock()
}

// Writes returns how many write-side sections have ended.
func (l *ContainerLocks) Writes() uint64 { return l.writes.Load() }

// Pin read-locks the stripes covering ids and returns a release function.
// Stripes are acquired in ascending order and all up front — a pinned
// reader never acquires another lock while holding these, so two
// overlapping pins cannot deadlock each other or a writer.
func (l *ContainerLocks) Pin(ids []container.ID) (release func()) {
	seen := make(map[int]bool, len(ids))
	order := make([]int, 0, len(ids))
	for _, id := range ids {
		s := int(uint64(id) % containerLockShards)
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	sort.Ints(order)
	lockrank.Acquire(lockrank.Container)
	for _, s := range order {
		l.shards[s].RLock()
	}
	return func() {
		lockrank.Release(lockrank.Container)
		// Release order is irrelevant for correctness; mirror acquisition.
		for _, s := range order {
			l.shards[s].RUnlock()
		}
	}
}

// PinMore extends a pin of held to ids without waiting: it read-locks the
// stripes covering ids that held's do not, and returns their release — or
// false, having locked nothing, when a writer holds or waits for one of
// them. An extension breaks Pin's ascending order, so it must not block: a
// writer waiting for a stripe it would take may be waiting behind a reader
// that waits for a stripe the pin holds.
func (l *ContainerLocks) PinMore(held, ids []container.ID) (release func(), ok bool) {
	have := make(map[int]bool, len(held))
	for _, id := range held {
		have[int(uint64(id)%containerLockShards)] = true
	}
	var took []int
	release = func() {
		for _, s := range took {
			l.shards[s].RUnlock()
		}
	}
	for _, id := range ids {
		s := int(uint64(id) % containerLockShards)
		if have[s] {
			continue
		}
		if !l.shards[s].TryRLock() {
			release()
			return nil, false
		}
		have[s] = true
		took = append(took, s)
	}
	return release, true
}
