// Package repl implements a minimal replicated batch log under the global
// fingerprint index (the shared-nothing clustered dedup design of Khan et
// al. is the blueprint).
//
// One Group is a shard of the fingerprint index: 2f+1 kvstore replicas
// plus a shared, durable replication log of WriteBatch records on OSS.
// The leader appends each batch as one log object stamped with its
// (term, index) position — the log put is the commit/durability point,
// object storage being the paper's always-durable substrate — then fans
// the batch out to every reachable replica and acknowledges once a
// quorum has applied it. Followers apply strictly in log order; a
// lagging or rebooted follower catches up by replaying the log from its
// last applied position.
//
// Failover: when the leader is dead or partitioned, the next operation
// elects the most up-to-date reachable replica (ties break to the lowest
// node id) at term+1. The detection timeout plus election round trips
// are charged as VIRTUAL time (simclock discipline): real elections wait
// on heartbeats; the deterministic harness records what that wait would
// have cost instead of sleeping.
//
// Fencing: every append carries the leader's term. A quorum that has
// acknowledged a newer term rejects appends from a deposed leader
// (ErrFenced) before anything reaches the log, so a stale leader cannot
// commit. Handle captures the lease a client holds; see Handle.Apply.
//
// Each replica stores, inside every applied batch, a reserved state key
// carrying (term, index). The position marker therefore commits
// atomically with the batch itself — the kvstore's all-or-nothing batch
// recovery guarantees a rebooted replica's claimed position never drifts
// from its data, which is what makes log catch-up idempotent.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// ErrNoQuorum reports that fewer than f+1 replicas are reachable: the
// group cannot commit (or elect) and the operation must fail loudly
// rather than risk split-brain.
var ErrNoQuorum = errors.New("repl: no quorum of reachable replicas")

// ErrFenced reports an append from a deposed leader: a quorum has moved
// to a higher term, so the stale leader's batch is rejected.
var ErrFenced = errors.New("repl: leader fenced by higher term")

// PhaseFailover is the simclock CPU phase failover downtime is charged
// to.
const PhaseFailover = simclock.Phase("repl-failover")

// stateKey is the reserved per-replica key holding (term, applied). Its
// length differs from fingerprint.Size, so index-level scans (which
// filter on key length) never see it.
var stateKey = []byte("!repl")

// Options configure a replica group.
type Options struct {
	// Replicas is the group size 2f+1. Default 3. A size of 1 degrades
	// to an unreplicated store that still writes the log (useful in
	// tests; production single-node setups skip repl entirely).
	Replicas int
	// Prefix is the group's OSS namespace (e.g. "gidx/s0/"): the log
	// lives at <Prefix>log/, replica i at <Prefix>n<i>/.
	Prefix string
	// KV tunes each replica's LSM store. Prefix is derived per node.
	KV kvstore.Options
	// HeartbeatTimeout is the virtual failure-detection delay charged
	// once per failover. Default 150ms.
	HeartbeatTimeout time.Duration
	// ElectionRoundTrip is the virtual cost of one election message
	// round (request votes, announce); two rounds are charged per
	// failover. Default 5ms.
	ElectionRoundTrip time.Duration
	// SyncEvery is the follower durability cadence: every SyncEvery
	// commits, reachable replicas sync their WAL so the log can be
	// truncated past them. Default 16.
	SyncEvery int
	// TruncateEvery is how many commits pass between log truncation
	// attempts. Default 64.
	TruncateEvery int
	// Downtime, when set, receives the virtual failover cost under
	// PhaseFailover (in addition to Stats).
	Downtime *simclock.Account
}

func (o *Options) fillDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 150 * time.Millisecond
	}
	if o.ElectionRoundTrip <= 0 {
		o.ElectionRoundTrip = 5 * time.Millisecond
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.TruncateEvery <= 0 {
		o.TruncateEvery = 64
	}
}

// node is one replica: a kvstore DB plus the group's view of its
// replication position.
type node struct {
	id          int
	db          *kvstore.DB
	alive       bool
	partitioned bool
	term        uint64 // highest term acknowledged
	applied     uint64 // highest log index applied (incl. memtable)
	durable     uint64 // highest applied index known persisted on OSS
}

// Stats snapshots replication counters.
type Stats struct {
	Replicas int
	Quorum   int
	Leader   int // -1 when none elected
	Term     uint64
	Commit   uint64 // highest quorum-committed log index

	Appends         int64 // log records written
	CatchUpRecords  int64 // log records replayed to lagging replicas
	FencingRejects  int64 // stale-term appends turned away
	Failovers       int64
	NodeFailures    int64 // replicas declared dead after storage errors
	LogTruncated    int64 // log records removed by truncation
	TruncateErrors  int64 // truncation deletes that failed (retried later)
	DowntimeVirtual time.Duration
}

// Group is one replicated index shard. All methods are safe for
// concurrent use; a single mutex serialises the replication state
// machine, mirroring the one-leader-at-a-time protocol it models.
//
// Lock order: Group.mu is a leaf in the system hierarchy (acquired
// below maintMu / FileLocks / ContainerLocks, above each replica's
// internal kvstore mutex; no callback under Group.mu takes any other
// system lock). See DESIGN.md §11.
type Group struct {
	store oss.Store
	opts  Options

	mu      sync.Mutex
	nodes   []*node
	leader  int    // -1 when unknown/dead
	term    uint64 // current group term (highest issued)
	logNext uint64 // next log index to append; indexes are 1-based

	truncated  uint64 // highest log index removed by truncation
	commit     uint64
	sinceSync  int
	sinceTrunc int
	stats      Stats
}

func (g *Group) logKey(idx uint64) string {
	return fmt.Sprintf("%slog/%016d", g.opts.Prefix, idx)
}

func encodeState(term, applied uint64) []byte {
	v := make([]byte, 16)
	binary.LittleEndian.PutUint64(v, term)
	binary.LittleEndian.PutUint64(v[8:], applied)
	return v
}

func decodeState(v []byte) (term, applied uint64) {
	if len(v) != 16 {
		return 0, 0
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
}

// Open opens (or creates) a replica group: every replica's store is
// opened, its persisted position read, and any replica behind the log
// tail is caught up before the group serves, so a reboot transparently
// heals lagging followers. The initial election is free — there is no
// failover to account for at cold start.
func Open(store oss.Store, opts Options) (*Group, error) {
	opts.fillDefaults()
	if opts.Prefix == "" {
		return nil, errors.New("repl: Options.Prefix required")
	}
	g := &Group{store: store, opts: opts, leader: -1}

	maxApplied := uint64(0)
	for i := 0; i < opts.Replicas; i++ {
		kv := opts.KV
		kv.Prefix = fmt.Sprintf("%sn%d/", opts.Prefix, i)
		db, err := kvstore.Open(store, kv)
		if err != nil {
			return nil, fmt.Errorf("repl: open replica %d: %w", i, err)
		}
		n := &node{id: i, db: db, alive: true}
		if v, ok, err := db.Get(stateKey); err != nil {
			return nil, fmt.Errorf("repl: read replica %d state: %w", i, err)
		} else if ok {
			n.term, n.applied = decodeState(v)
			n.durable = n.applied
		}
		if n.applied > maxApplied {
			maxApplied = n.applied
		}
		g.nodes = append(g.nodes, n)
	}

	// Recover the log bounds. The truncation invariant (the newest
	// record is never deleted) makes the highest surviving key the
	// authoritative tail.
	keys, err := store.List(opts.Prefix + "log/")
	if err != nil {
		return nil, fmt.Errorf("repl: list log: %w", err)
	}
	sort.Strings(keys)
	g.logNext = maxApplied + 1
	if len(keys) > 0 {
		first, err := strconv.ParseUint(strings.TrimPrefix(keys[0], opts.Prefix+"log/"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("repl: bad log key %q: %w", keys[0], err)
		}
		last, err := strconv.ParseUint(strings.TrimPrefix(keys[len(keys)-1], opts.Prefix+"log/"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("repl: bad log key %q: %w", keys[len(keys)-1], err)
		}
		g.truncated = first - 1
		if last >= g.logNext {
			g.logNext = last + 1
		}
	} else {
		g.truncated = g.logNext - 1
	}

	// Bring every replica to the log tail so the group starts
	// converged; this also completes any record a crashed leader
	// appended to the log but never fanned out. The group's term is
	// taken after the replay, not from what the replicas had persisted:
	// records appended after a failover carry the later term, and a
	// group behind its own replicas is fenced by all of them for good.
	for _, n := range g.nodes {
		if err := g.catchUpNodeLocked(n, g.logNext-1); err != nil {
			return nil, fmt.Errorf("repl: recover replica %d: %w", n.id, err)
		}
		g.term = max(g.term, n.term)
	}
	g.commit = g.logNext - 1
	if err := g.electLocked(false); err != nil {
		return nil, err
	}
	return g, nil
}

// ensureLeaderLocked elects a leader if the current one is dead or
// partitioned, charging the election as a failover.
func (g *Group) ensureLeaderLocked() error {
	if g.leader >= 0 {
		n := g.nodes[g.leader]
		if n.alive && !n.partitioned {
			return nil
		}
		g.leader = -1
	}
	return g.electLocked(true)
}

// electLocked picks the most up-to-date reachable replica as leader at
// term+1. charge=false is the cold-start path (Open), where no failure
// was detected and no downtime accrues.
func (g *Group) electLocked(charge bool) error {
	var voters []*node
	for _, n := range g.nodes {
		if n.alive && !n.partitioned {
			voters = append(voters, n)
		}
	}
	if len(voters) < g.quorum() {
		g.leader = -1
		return fmt.Errorf("repl: elect with %d of %d replicas reachable: %w", len(voters), len(g.nodes), ErrNoQuorum)
	}
	if charge {
		d := g.opts.HeartbeatTimeout + 2*g.opts.ElectionRoundTrip
		if g.opts.Downtime != nil {
			g.opts.Downtime.ChargeCPU(PhaseFailover, d)
		}
		g.stats.Failovers++
		g.stats.DowntimeVirtual += d
	}
	best := voters[0]
	for _, n := range voters[1:] {
		if n.applied > best.applied {
			best = n
		}
	}
	g.term++
	for _, n := range voters {
		if g.term > n.term {
			n.term = g.term
		}
	}
	// The new leader completes its predecessor's dangling log suffix
	// (records appended to the log but never quorum-committed) before
	// serving — the raft rule that a leader never discards log entries.
	if err := g.catchUpNodeLocked(best, g.logNext-1); err != nil {
		g.failNodeLocked(best)
		return fmt.Errorf("repl: new leader %d catch-up: %w", best.id, err)
	}
	g.leader = best.id
	g.commit = best.applied
	return nil
}

func (g *Group) quorum() int { return len(g.nodes)/2 + 1 }

// failNodeLocked declares a replica dead after a storage error: its
// in-memory state (memtable, WAL buffer) is considered lost, exactly as
// a crash would lose it. Restart recovers it from OSS plus the log.
func (g *Group) failNodeLocked(n *node) {
	if !n.alive {
		return
	}
	n.alive = false
	n.db = nil
	n.applied = n.durable // only the persisted prefix survives the crash
	g.stats.NodeFailures++
	if g.leader == n.id {
		g.leader = -1
	}
}

// Apply replicates one batch: log append (durability point), quorum
// fan-out, commit. A dead or partitioned leader is replaced
// transparently — the caller only sees an error when no quorum is
// reachable or the batch could not reach the log.
func (g *Group) Apply(b *kvstore.Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ensureLeaderLocked(); err != nil {
		return err
	}
	return g.appendAsLocked(g.term, b)
}

// appendAsLocked runs the append protocol on behalf of a leader at the
// given term. The term guard is the fencing point: a quorum at a higher
// term turns the append away before it reaches the log.
func (g *Group) appendAsLocked(term uint64, b *kvstore.Batch) error {
	if term < g.term {
		g.stats.FencingRejects++
		return fmt.Errorf("repl: append at term %d, group at term %d: %w", term, g.term, ErrFenced)
	}
	idx := g.logNext
	rec := kvstore.AppendReplRecord(nil, term, idx, b)
	if err := g.store.Put(g.logKey(idx), rec); err != nil {
		return fmt.Errorf("repl: append log record %d: %w", idx, err)
	}
	g.logNext++
	g.stats.Appends++

	acks := 0
	var why []string // each reached replica's reason for not acknowledging
	for _, n := range g.nodes {
		if !n.alive || n.partitioned {
			continue
		}
		if err := g.appendToNodeLocked(n, term, idx, b); err != nil {
			why = append(why, err.Error())
			g.failNodeLocked(n)
			continue
		}
		acks++
	}
	if acks < g.quorum() {
		g.leader = -1
		return fmt.Errorf("repl: record %d acked by %d of %d: %w (%d unreachable; %s)", idx, acks, len(g.nodes), ErrNoQuorum, len(g.nodes)-acks-len(why), strings.Join(why, "; "))
	}
	g.commit = idx
	g.maybeSyncTruncateLocked()
	return nil
}

// appendToNodeLocked delivers record (term, idx, b) to one replica,
// replaying the log first if the replica lags (a healed partition, a
// restarted node). The replica's position marker is folded into the
// same kvstore batch, so position and data commit atomically.
func (g *Group) appendToNodeLocked(n *node, term, idx uint64, b *kvstore.Batch) error {
	if term < n.term {
		g.stats.FencingRejects++
		return fmt.Errorf("repl: replica %d at term %d rejects term %d: %w", n.id, n.term, term, ErrFenced)
	}
	if n.applied+1 < idx {
		if err := g.catchUpNodeLocked(n, idx-1); err != nil {
			return err
		}
	}
	if idx <= n.applied {
		return nil // already delivered via catch-up
	}
	nb := b.Clone()
	nb.Put(stateKey, encodeState(term, idx))
	if err := n.db.Apply(nb); err != nil {
		return fmt.Errorf("repl: replica %d apply %d: %w", n.id, idx, err)
	}
	n.term, n.applied = term, idx
	return nil
}

// catchUpNodeLocked replays log records (n.applied, upTo] to a replica.
func (g *Group) catchUpNodeLocked(n *node, upTo uint64) error {
	for idx := n.applied + 1; idx <= upTo; idx++ {
		if idx <= g.truncated {
			return fmt.Errorf("repl: replica %d needs truncated log record %d", n.id, idx)
		}
		rec, err := g.store.Get(g.logKey(idx))
		if err != nil {
			return fmt.Errorf("repl: read log record %d: %w", idx, err)
		}
		term, ridx, b, err := kvstore.DecodeReplRecord(rec)
		if err != nil {
			return fmt.Errorf("repl: log record %d: %w", idx, err)
		}
		if ridx != idx {
			return fmt.Errorf("repl: log record %d stamped %d", idx, ridx)
		}
		nb := b.Clone()
		if term < n.term {
			term = n.term // an old-term record replayed after a newer election keeps the newer term
		}
		nb.Put(stateKey, encodeState(term, idx))
		if err := n.db.Apply(nb); err != nil {
			return fmt.Errorf("repl: replica %d replay %d: %w", n.id, idx, err)
		}
		n.term, n.applied = term, idx
		g.stats.CatchUpRecords++
	}
	return nil
}

// syncReplicasLocked syncs every reachable replica's WAL, failing the
// ones that cannot, and returns how many are now durable up to their
// applied position.
func (g *Group) syncReplicasLocked() (ok int) {
	for _, n := range g.nodes {
		if !n.alive || n.partitioned {
			continue
		}
		if err := n.db.Sync(); err != nil {
			g.failNodeLocked(n)
			continue
		}
		n.durable = n.applied
		ok++
	}
	return ok
}

// maybeSyncTruncateLocked runs the periodic durability and log-size
// work: sync reachable replicas every SyncEvery commits (advancing
// their durable watermark), and drop log records every replica has
// durably applied every TruncateEvery commits. The newest record is
// always retained so the tail position survives a full restart.
func (g *Group) maybeSyncTruncateLocked() {
	g.sinceSync++
	if g.sinceSync >= g.opts.SyncEvery {
		g.sinceSync = 0
		g.syncReplicasLocked()
	}
	g.sinceTrunc++
	if g.sinceTrunc < g.opts.TruncateEvery {
		return
	}
	g.sinceTrunc = 0
	if g.logNext < 3 {
		return // nothing beyond the always-retained newest record
	}
	min := g.commit
	for _, n := range g.nodes {
		if n.durable < min {
			min = n.durable // dead replicas pin the log until they restart
		}
	}
	if min >= g.logNext-1 {
		min = g.logNext - 2 // retain the newest record
	}
	for idx := g.truncated + 1; idx <= min; idx++ {
		if err := g.store.Delete(g.logKey(idx)); err != nil {
			g.stats.TruncateErrors++ // harmless: retried next round
			return
		}
		g.truncated = idx
		g.stats.LogTruncated++
	}
}

// GetMulti resolves many keys through the current leader.
func (g *Group) GetMulti(keys [][]byte) ([][]byte, []bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ensureLeaderLocked(); err != nil {
		return nil, nil, err
	}
	return g.nodes[g.leader].db.GetMulti(keys)
}

// Scan visits the leader's live keys in order, hiding the reserved
// replication state key so the group reads like a plain kvstore.
func (g *Group) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ensureLeaderLocked(); err != nil {
		return err
	}
	return g.nodes[g.leader].db.Scan(start, end, func(k, v []byte) bool {
		if string(k) == string(stateKey) {
			return true
		}
		return fn(k, v)
	})
}

// Sync makes every reachable replica durable up to what it has applied
// (one WAL put each), advancing the durable watermarks so truncation can
// proceed; it fails unless a quorum synced.
func (g *Group) Sync() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ensureLeaderLocked(); err != nil {
		return err
	}
	if ok := g.syncReplicasLocked(); ok < g.quorum() {
		return fmt.Errorf("repl: sync reached %d of %d replicas: %w", ok, len(g.nodes), ErrNoQuorum)
	}
	return nil
}

// Stats implements the kvstore-shaped stats surface (globalindex
// embeds it as the shard's KV stats): the current leader's engine
// counters, or a zero value when no replica is reachable.
func (g *Group) Stats() kvstore.Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.leader >= 0 && g.nodes[g.leader].alive {
		return g.nodes[g.leader].db.Stats()
	}
	for _, n := range g.nodes {
		if n.alive {
			return n.db.Stats()
		}
	}
	return kvstore.Stats{}
}

// ReplStats snapshots the replication counters.
func (g *Group) ReplStats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.Replicas = len(g.nodes)
	s.Quorum = g.quorum()
	s.Leader = g.leader
	s.Term = g.term
	s.Commit = g.commit
	return s
}

// Leader returns the current leader id, or -1 if none is elected.
func (g *Group) Leader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leader
}

// Kill crashes a replica: its in-memory state (memtable, WAL buffer,
// unsynced applies) is lost; only what reached OSS survives. A killed
// leader triggers an election on the next operation.
func (g *Group) Kill(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return
	}
	g.failNodeLocked(g.nodes[id])
}

// KillLeader crashes the current leader, returning its id (-1 if no
// leader was elected).
func (g *Group) KillLeader() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.leader
	if id >= 0 {
		g.failNodeLocked(g.nodes[id])
	}
	return id
}

// Restart reboots a crashed replica: reopen its store, read the
// persisted position (guaranteed consistent by all-or-nothing batch
// recovery), replay the log tail it missed.
func (g *Group) Restart(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return fmt.Errorf("repl: restart unknown replica %d", id)
	}
	n := g.nodes[id]
	if n.alive {
		return nil
	}
	kv := g.opts.KV
	kv.Prefix = fmt.Sprintf("%sn%d/", g.opts.Prefix, id)
	db, err := kvstore.Open(g.store, kv)
	if err != nil {
		return fmt.Errorf("repl: reopen replica %d: %w", id, err)
	}
	n.db = db
	n.term, n.applied = 0, 0
	if v, ok, err := db.Get(stateKey); err != nil {
		return fmt.Errorf("repl: read replica %d state: %w", id, err)
	} else if ok {
		n.term, n.applied = decodeState(v)
	}
	n.durable = n.applied
	if err := g.catchUpNodeLocked(n, g.commit); err != nil {
		return fmt.Errorf("repl: replica %d catch-up: %w", id, err)
	}
	n.alive = true
	return nil
}

// Partition isolates a replica: still running, but unreachable for
// appends, elections, and reads. A partitioned leader is deposed on the
// next operation.
func (g *Group) Partition(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return
	}
	g.nodes[id].partitioned = true
	if g.leader == id {
		g.leader = -1
	}
}

// Heal reconnects a partitioned replica; it catches up on the next
// append that reaches it.
func (g *Group) Heal(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return
	}
	g.nodes[id].partitioned = false
}

// Handle captures the leader lease a client holds: the group and the
// term the leader was elected at. Applying through a stale handle —
// one whose term has been superseded by a later election — is fenced.
type Handle struct {
	g    *Group
	term uint64
}

// Handle returns a lease on the current leader.
func (g *Group) Handle() (*Handle, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.ensureLeaderLocked(); err != nil {
		return nil, err
	}
	return &Handle{g: g, term: g.term}, nil
}

// Apply replicates a batch on behalf of the leader this handle was
// issued for. Returns ErrFenced if a newer leader has been elected
// since — the deposed leader's write never reaches the log.
func (h *Handle) Apply(b *kvstore.Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	h.g.mu.Lock()
	defer h.g.mu.Unlock()
	return h.g.appendAsLocked(h.term, b)
}

// Close syncs and closes every live replica.
func (g *Group) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	for _, n := range g.nodes {
		if !n.alive {
			continue
		}
		if err := n.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	g.leader = -1
	return first
}
