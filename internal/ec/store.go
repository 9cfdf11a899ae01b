package ec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// Store is the erasure-coded redundancy tier: an oss.Store that stripes
// every object into K data + M parity shards across K+M fault-isolated
// backends. Reads reconstruct transparently while at most M shards are
// unavailable (whole-backend outage, missing object, or checksum-failed
// envelope), charging reconstruction CPU to the job's account; more than
// M losses surface loudly as ErrInsufficient. A key is written once — a
// put is K+M puts a crash can tear, so an overwrite could leave no whole
// object — and the first valid shard header a read meets describes the
// object. Views from WithAccount share the backends and stats, mirroring
// oss.Metered.
type Store struct {
	codec    *Codec
	backends []*oss.Backend
	cpu      simclock.Costs    // CPU-side cost model (reconstruction)
	acct     *simclock.Account // may be nil (unmetered view)
	sh       *shared
}

// shared is the per-tier state common to every account view.
type shared struct {
	mu    sync.Mutex
	stats Stats
}

// Stats counts tier activity since the store was built. Counters are
// aggregated across all account views.
type Stats struct {
	StripesWritten      int64 // Put calls that wrote a full stripe
	ShardWrites         int64 // individual shard objects written (incl. repairs)
	Reads               int64 // Get calls served
	DegradedReads       int64 // Gets that needed reconstruction
	ReconstructedShards int64 // shards rebuilt by reads and repairs
	ShardFailures       int64 // shard reads lost to outage, rot, or a foreign header
	RangedReads         int64 // GetRange calls served from shard sub-ranges
	RangedFallbacks     int64 // GetRanges that fell back to full reconstruction
	RepairedShards      int64 // shards rewritten to a backend by Repair
}

// NewStore builds the tier over len(backends) = k+m backends. cpu supplies
// the reconstruction cost model (Costs.ECReconstructPerByte).
func NewStore(backends []*oss.Backend, k, m int, cpu simclock.Costs) (*Store, error) {
	codec, err := NewCodec(k, m)
	if err != nil {
		return nil, err
	}
	if len(backends) != k+m {
		return nil, fmt.Errorf("ec: RS(%d+%d) needs %d backends, have %d", k, m, k+m, len(backends))
	}
	return &Store{codec: codec, backends: backends, cpu: cpu, sh: &shared{}}, nil
}

// WithAccount returns a view over the same backends and stats charging a
// different account (nil disables charging).
func (s *Store) WithAccount(acct *simclock.Account) *Store {
	v := *s
	v.acct = acct
	return &v
}

// Codec exposes the tier's codec geometry.
func (s *Store) Codec() *Codec { return s.codec }

// Stats snapshots the tier counters.
func (s *Store) Stats() Stats {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	return s.sh.stats
}

func (s *Store) bump(f func(*Stats)) {
	s.sh.mu.Lock()
	f(&s.sh.stats)
	s.sh.mu.Unlock()
}

func (s *Store) chargeRead(i, n int) {
	if s.acct != nil {
		s.acct.ChargeRead(s.backends[i].Costs, int64(n))
	}
}

func (s *Store) chargeWrite(i, n int) {
	if s.acct != nil {
		s.acct.ChargeWrite(s.backends[i].Costs, int64(n))
	}
}

func (s *Store) chargeReconstruct(n int) {
	if s.acct != nil {
		s.acct.ChargeCPUBytes(simclock.PhaseECReconstruct, int64(n), s.cpu.ECReconstructPerByte)
	}
}

// header returns the envelope header for a write of data under key.
func (s *Store) header(key string, data []byte) ShardHeader {
	return ShardHeader{
		StripeID: StripeIDOf(key),
		K:        s.codec.K(),
		M:        s.codec.M(),
		ObjLen:   int64(len(data)),
		ObjCRC:   objCRC(data),
	}
}

// Put implements oss.Store: encode and write one shard per backend, under
// a key that holds nothing. Every backend is attempted even after a
// failure (leaving the stripe as complete as possible for later repair),
// but any failure makes the whole Put fail loudly — callers treat the
// object as not written, and a payload is put before the meta that names
// it, so a partial stripe is one no meta names.
func (s *Store) Put(key string, data []byte) error {
	shards := s.codec.Encode(data)
	h := s.header(key, data)
	// Parity generation is the same GF arithmetic as reconstruction.
	s.chargeReconstruct(s.codec.M() * len(shards[0]))
	var errs []error
	wrote := int64(0)
	for i, payload := range shards {
		h.Index = i
		env := EncodeShard(h, payload)
		if err := s.backends[i].Store.Put(key, env); err != nil {
			errs = append(errs, fmt.Errorf("backend %s: %w", s.backends[i].Name, err))
			continue
		}
		wrote++
		s.chargeWrite(i, len(env))
	}
	s.bump(func(st *Stats) {
		st.StripesWritten++
		st.ShardWrites += wrote
	})
	if len(errs) > 0 {
		return fmt.Errorf("ec: put %s: %w", key, errors.Join(errs...))
	}
	return nil
}

// fetchShard reads and validates shard i of key. ok=false with err nil is
// a shard that was read and is unusable (rot, a shard of another stripe);
// err is the read's own failure — not found, or failed on the way.
func (s *Store) fetchShard(key string, i int) (h ShardHeader, payload []byte, ok bool, err error) {
	raw, err := s.backends[i].Store.Get(key)
	if err != nil {
		return h, nil, false, err
	}
	h, payload, derr := DecodeShard(raw)
	if derr != nil || h.Index != i || h.K != s.codec.K() || h.M != s.codec.M() ||
		h.StripeID != StripeIDOf(key) {
		return h, nil, false, nil
	}
	s.chargeRead(i, len(raw))
	return h, payload, true, nil
}

// stripe is the validated view of one key across the backends. The first
// valid header describes the object; a shard whose header disagrees with it
// is an erasure like any other, since a key is written once.
type stripe struct {
	hdr      *ShardHeader // the first valid header; nil while none was read
	payloads [][]byte     // by shard index; nil where the shard is unusable or unread
	present  int          // shards that agree with hdr
	notFound int          // slots where the shard object simply does not exist
	failed   int          // slots lost to outage, rot, or a disagreeing header
	unread   int          // of failed, the slots whose read failed on the way
}

// fetch reads shards [lo, hi) of key into st.
func (s *Store) fetch(key string, st *stripe, lo, hi int) {
	if st.payloads == nil {
		st.payloads = make([][]byte, s.codec.K()+s.codec.M())
	}
	for i := lo; i < hi; i++ {
		h, payload, ok, err := s.fetchShard(key, i)
		if ok && st.hdr == nil {
			st.hdr = &h
		}
		switch {
		case ok && h.ObjLen == st.hdr.ObjLen && h.ObjCRC == st.hdr.ObjCRC:
			st.payloads[i] = payload
			st.present++
		case errors.Is(err, oss.ErrNotFound):
			st.notFound++
		case err != nil:
			st.unread++
			fallthrough
		default:
			st.failed++
		}
	}
}

// insufficient is the loud end of a stripe with fewer than K shards that
// agree: more than M lost — or, ErrUnavailable, kept short of K by reads
// that failed on the way, which a later read may not meet.
func (s *Store) insufficient(op, key string, st *stripe) error {
	err := fmt.Errorf("ec: %s %s: %w (%d of %d shards readable, %d unreadable; need %d)",
		op, key, ErrInsufficient, st.present, s.codec.K()+s.codec.M(), st.failed, s.codec.K())
	if st.present+st.unread >= s.codec.K() {
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return err
}

// bad lists the slots of st holding no usable shard.
func (st *stripe) bad() []int {
	var out []int
	for i, p := range st.payloads {
		if p == nil {
			out = append(out, i)
		}
	}
	return out
}

// Get implements oss.Store: fetch the K data shards, reconstructing from
// parity when any are missing, rotted, or foreign.
func (s *Store) Get(key string) ([]byte, error) {
	k, m := s.codec.K(), s.codec.M()
	var st stripe
	s.fetch(key, &st, 0, k)

	// Fast path: every data shard intact — no GF arithmetic, just join and
	// verify the object checksum.
	if st.present == k {
		data, err := s.codec.Join(st.payloads[:k], int(st.hdr.ObjLen))
		if err == nil && objCRC(data) == st.hdr.ObjCRC {
			s.bump(func(x *Stats) { x.Reads++ })
			return data, nil
		}
	}

	// Degraded: fetch the parity shards too and decode.
	s.fetch(key, &st, k, k+m)
	// A written object has a shard on every backend: one that shows none
	// with at most M unreadable is absent, and an outage the tier tolerates
	// must not turn the "not found" a reader is prepared for into a failure.
	if st.present == 0 && st.failed <= m {
		return nil, fmt.Errorf("%w: %s", oss.ErrNotFound, key)
	}
	if st.present < k {
		s.bump(func(x *Stats) { x.ShardFailures += int64(k + m - st.present) })
		return nil, s.insufficient("get", key, &st)
	}
	shards := st.payloads
	missingData := 0
	for i := 0; i < k; i++ {
		if shards[i] == nil {
			missingData++
		}
	}
	if err := s.codec.Reconstruct(shards); err != nil {
		return nil, fmt.Errorf("ec: get %s: %w", key, err)
	}
	data, err := s.codec.Join(shards[:k], int(st.hdr.ObjLen))
	if err != nil {
		return nil, fmt.Errorf("ec: get %s: %w", key, err)
	}
	if objCRC(data) != st.hdr.ObjCRC {
		return nil, fmt.Errorf("ec: get %s: reconstructed object fails its checksum", key)
	}
	s.chargeReconstruct(missingData * len(shards[0]))
	s.bump(func(x *Stats) {
		x.Reads++
		x.DegradedReads++
		x.ReconstructedShards += int64(missingData)
		x.ShardFailures += int64(k + m - st.present)
	})
	return data, nil
}

// probeHeader reads one shard header from the first backend that serves a
// valid one. It is not found only when no backend holds the key; otherwise
// its error names every failure other than a missing shard, so a read that
// failed on the way is never taken for a stripe that is gone.
func (s *Store) probeHeader(key string) (ShardHeader, error) {
	var errs []error
	for i := range s.backends {
		raw, err := s.backends[i].Store.GetRange(key, 0, HeaderSize)
		if errors.Is(err, oss.ErrNotFound) {
			continue
		}
		if err == nil {
			var h ShardHeader
			if h, err = DecodeShardHeader(raw); err == nil && h.StripeID == StripeIDOf(key) {
				s.chargeRead(i, len(raw))
				return h, nil
			}
			err = fmt.Errorf("ec: probe %s on backend %s: invalid header", key, s.backends[i].Name)
		}
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		return ShardHeader{}, fmt.Errorf("%w: %s", oss.ErrNotFound, key)
	}
	return ShardHeader{}, fmt.Errorf("ec: probe %s: no backend served a header: %w", key, errors.Join(errs...))
}

// GetRange implements oss.Store. The contiguous split maps a byte range
// onto sub-ranges of at most a handful of consecutive shards, so the
// ranged-read planner's economics survive striping: one small header
// probe plus one ranged read per covering shard. Any unreadable covering
// shard falls back to a full reconstructing Get.
func (s *Store) GetRange(key string, off, n int64) ([]byte, error) {
	h, err := s.probeHeader(key)
	if err != nil {
		return nil, err
	}
	end, err := oss.RangeEnd(key, off, n, h.ObjLen)
	if err != nil {
		return nil, err
	}
	if end == off {
		s.bump(func(x *Stats) { x.RangedReads++ })
		return []byte{}, nil
	}
	out := make([]byte, 0, end-off)
	sz := int64(s.codec.ShardSize(int(h.ObjLen)))
	for j := off / sz; j*sz < end; j++ {
		if int(j) >= s.codec.K() {
			break
		}
		lo, hi := j*sz, (j+1)*sz
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		part, err := s.backends[j].Store.GetRange(key, HeaderSize+lo-j*sz, hi-lo)
		if err != nil || int64(len(part)) != hi-lo {
			return s.rangeOfGet(key, off, n) // covering shard unreachable
		}
		s.chargeRead(int(j), len(part))
		out = append(out, part...)
	}
	s.bump(func(x *Stats) { x.RangedReads++ })
	return out, nil
}

// rangeOfGet is GetRange's fallback: the range of the whole, reconstructed
// object.
func (s *Store) rangeOfGet(key string, off, n int64) ([]byte, error) {
	s.bump(func(x *Stats) { x.RangedFallbacks++ })
	full, err := s.Get(key)
	if err != nil {
		return nil, err
	}
	end, err := oss.RangeEnd(key, off, n, int64(len(full)))
	if err != nil {
		return nil, err
	}
	return full[off:end], nil
}

// Head implements oss.Store.
func (s *Store) Head(key string) (int64, error) {
	h, err := s.probeHeader(key)
	if err != nil {
		return 0, err
	}
	return h.ObjLen, nil
}

// Delete implements oss.Store: the shard must disappear from every
// backend, so a deletion during an outage fails loudly rather than
// leaving resurrectable stale shards behind (a FullSweep after the heal
// reclaims the payload no meta names).
func (s *Store) Delete(key string) error {
	var errs []error
	for i := range s.backends {
		if err := s.backends[i].Store.Delete(key); err != nil {
			errs = append(errs, fmt.Errorf("backend %s: %w", s.backends[i].Name, err))
			continue
		}
		s.chargeWrite(i, 0)
	}
	if len(errs) > 0 {
		return fmt.Errorf("ec: delete %s: %w", key, errors.Join(errs...))
	}
	return nil
}

// List implements oss.Store: the union of keys across reachable backends
// (a stripe is listed even when some backends are down — scrub needs to
// see degraded stripes). Only when every backend fails does List fail.
func (s *Store) List(prefix string) ([]string, error) {
	seen := make(map[string]bool)
	var lastErr error
	ok := 0
	for i := range s.backends {
		keys, err := s.backends[i].Store.List(prefix)
		if err != nil {
			lastErr = fmt.Errorf("backend %s: %w", s.backends[i].Name, err)
			continue
		}
		ok++
		for _, k := range keys {
			seen[k] = true
		}
	}
	if ok == 0 {
		return nil, fmt.Errorf("ec: list %s: %w", prefix, lastErr)
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// StripeHealth is the scrub-facing view of one striped object.
type StripeHealth struct {
	Key string
	// Present counts shards that are readable, checksum-valid and agree
	// with the first valid header.
	Present int
	// Bad lists shard slots needing a rewrite: missing, rotted, foreign,
	// or on an unreachable backend.
	Bad []int
	// Recoverable is Present >= K: Repair can rebuild the stripe.
	Recoverable bool
}

// Check reads every shard of key and classifies the stripe. A key with no
// shard anywhere returns oss.ErrNotFound.
func (s *Store) Check(key string) (*StripeHealth, error) {
	var st stripe
	s.fetch(key, &st, 0, s.codec.K()+s.codec.M())
	if st.present == 0 && st.failed == 0 {
		return nil, fmt.Errorf("%w: %s", oss.ErrNotFound, key)
	}
	return &StripeHealth{Key: key, Present: st.present, Bad: st.bad(), Recoverable: st.present >= s.codec.K()}, nil
}

// Repair rebuilds a degraded stripe back to full K+M redundancy:
// reconstruct the object from its survivors and rewrite every bad slot.
// Reconstruction is deterministic, so repaired shard objects are
// byte-identical to the originals. Rewrites that fail (backend still down)
// leave the stripe degraded for the next scrub; the returned count says how
// many shards actually landed. Repair is idempotent and safe to crash out
// of at any point — it only ever writes bytes the stripe already holds.
func (s *Store) Repair(key string) (repaired int, err error) {
	k := s.codec.K()
	var st stripe
	s.fetch(key, &st, 0, k+s.codec.M())
	if st.present < k {
		return 0, s.insufficient("repair", key, &st)
	}
	shards, bad := st.payloads, st.bad()
	if len(bad) == 0 {
		return 0, nil
	}
	if err := s.codec.Reconstruct(shards); err != nil {
		return 0, fmt.Errorf("ec: repair %s: %w", key, err)
	}
	// Never write a repair whose reconstructed object fails its checksum.
	h := *st.hdr
	data, err := s.codec.Join(shards[:k], int(h.ObjLen))
	if err != nil {
		return 0, fmt.Errorf("ec: repair %s: %w", key, err)
	}
	if objCRC(data) != h.ObjCRC {
		return 0, fmt.Errorf("ec: repair %s: reconstructed object fails its checksum", key)
	}
	s.chargeReconstruct(len(bad) * len(shards[0]))
	var errs []error
	for _, i := range bad {
		h.Index = i
		env := EncodeShard(h, shards[i])
		if werr := s.backends[i].Store.Put(key, env); werr != nil {
			errs = append(errs, fmt.Errorf("backend %s: %w", s.backends[i].Name, werr))
			continue
		}
		repaired++
		s.chargeWrite(i, len(env))
	}
	rep := int64(repaired)
	recon := int64(len(bad))
	s.bump(func(x *Stats) {
		x.RepairedShards += rep
		x.ReconstructedShards += recon
		x.ShardWrites += rep
	})
	if len(errs) > 0 {
		return repaired, fmt.Errorf("ec: repair %s: %w", key, errors.Join(errs...))
	}
	return repaired, nil
}

// Router splits one OSS namespace between the striped tier and a plain
// store: a key under one of the routed prefixes that ends in the routed
// suffix (a container payload, written once) rides the redundancy tier;
// everything else — container metas, recipes, catalog, indexes, LSM
// segments — stays on the plain store, whose put replaces an object
// atomically. container.Store opens over a Router, so backup, restore,
// quarantine and rewrite stripe their payloads transparently.
type Router struct {
	oss.Store // plain seen through Do
	tier      *Store
	suffix    string
	prefixes  []string
}

// NewRouter routes the keys under any of prefixes that end in suffix to
// tier, and the rest to plain.
func NewRouter(tier *Store, plain oss.Store, suffix string, prefixes ...string) *Router {
	r := &Router{tier: tier, suffix: suffix, prefixes: prefixes}
	r.Store = oss.With(plain, r)
	return r
}

func (r *Router) routed(key string) bool {
	for _, p := range r.prefixes {
		if strings.HasPrefix(key, p) && strings.HasSuffix(key, r.suffix) {
			return true
		}
	}
	return false
}

// Do implements oss.Layer: a request for a routed key goes to the tier and
// never reaches plain. A listing merges both sides — the tier's keys under
// the listed prefix or a routed prefix inside it — hiding the tier's
// physical shard objects behind their logical keys.
func (r *Router) Do(op oss.Op, plain oss.Store) (oss.Op, error) {
	if r.routed(op.Key) {
		return oss.Do(r.tier, op)
	}
	op, err := oss.Do(plain, op)
	if err != nil || op.Kind != oss.KindList {
		return op, err
	}
	out := make([]string, 0, len(op.Keys))
	for _, k := range op.Keys {
		// Physical shard namespaces live on the plain base store; hide
		// them from logical listings.
		if !strings.HasPrefix(k, "ec/") && !r.routed(k) {
			out = append(out, k)
		}
	}
	merged := false
	for _, p := range r.prefixes {
		if strings.HasPrefix(op.Key, p) {
			p = op.Key
		} else if !strings.HasPrefix(p, op.Key) {
			continue
		}
		tk, err := r.tier.List(p)
		if err != nil {
			return op, err
		}
		out = append(out, tk...)
		merged = true
	}
	if merged {
		sort.Strings(out)
	}
	op.Keys = out
	return op, nil
}
