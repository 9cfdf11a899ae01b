package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// ECOptions configures an erasure-coding chaos run: an EC-tier repo whose
// backends suffer whole-domain outages and shard bit-rot while restores
// and scrubs run concurrently, compared against a fault-free twin with
// the identical workload.
type ECOptions struct {
	Seed     int64
	Rounds   int // damage/heal rounds (default 4)
	K, M     int // stripe geometry (default 2+2)
	Restores int // concurrent restores per round (default 6)
	Log      func(format string, args ...any)
}

// ECResult counts what the EC schedule did and observed.
type ECResult struct {
	Rounds          int
	Backups         int
	Restores        int // concurrent restores, all verified byte-identical
	Outages         int // whole-backend blackouts injected
	ShardsRotted    int // shard objects bit-flipped at rest
	DegradedStripes int // stripes scrub found below full redundancy
	RepairedShards  int // shards scrub reconstructed and rewrote
	RepairFailures  int // repair attempts against a still-dark backend
	Reboots         int // fault-repo process restarts (journal replay)
	DegradedReads   int64
	LiveVersions    int // versions verified identical on both repos at the end
}

// ecChaosConfig is the shared layout of both repos in an EC run.
func ecChaosConfig(k, m int) core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 128 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.ChunkMerging = false
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 0
	cfg.ECDataShards = k
	cfg.ECParityShards = m
	return cfg
}

// ecRepo is one side of the EC twin pair.
type ecRepo struct {
	mem  *oss.Frozen
	repo *core.Repo
	ln   *lnode.LNode
	gn   *gnode.GNode
}

func openECRepo(cfg core.Config) (*ecRepo, error) {
	mem := oss.NewFrozen(oss.NewMem())
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return nil, err
	}
	return &ecRepo{mem: mem, repo: repo, ln: lnode.New(repo, "ec-l0"), gn: gnode.New(repo)}, nil
}

func (r *ecRepo) reboot(cfg core.Config) error {
	repo, err := core.OpenRepo(r.mem, cfg)
	if err != nil {
		return err
	}
	r.repo, r.ln, r.gn = repo, lnode.New(repo, "ec-l0"), gnode.New(repo)
	return nil
}

// shardDump snapshots the physical redundancy tier: every shard object on
// every backend, byte-exact.
func (r *ecRepo) shardDump() (map[string]string, error) {
	keys, err := r.mem.List("ec/")
	if err != nil {
		return nil, err
	}
	dump := make(map[string]string, len(keys))
	for _, k := range keys {
		b, err := r.mem.Get(k)
		if err != nil {
			return nil, err
		}
		dump[k] = string(b)
	}
	return dump, nil
}

// RunEC executes a seeded erasure-coding chaos schedule. Each round
// backs identical data into a fault repo and a fault-free twin, blacks
// out or bit-rots up to M of the fault repo's K+M backends, then runs
// concurrent restores under fire while a scrub repairs through the
// damage. After the heal every stripe must be back at full K+M
// redundancy, and at the end the fault repo's physical shard state must
// be byte-for-byte DeepEqual to the twin that never saw a fault.
func RunEC(opts ECOptions) (*ECResult, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 4
	}
	if opts.K <= 0 {
		opts.K = 2
	}
	if opts.M <= 0 {
		opts.M = 2
	}
	if opts.Restores <= 0 {
		opts.Restores = 6
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	res := &ECResult{}
	cfg := ecChaosConfig(opts.K, opts.M)
	rng := rand.New(rand.NewSource(opts.Seed))

	twin, err := openECRepo(cfg)
	if err != nil {
		return res, fmt.Errorf("chaos ec: open twin: %w", err)
	}
	fault, err := openECRepo(cfg)
	if err != nil {
		return res, fmt.Errorf("chaos ec: open fault repo: %w", err)
	}

	type ver struct {
		v    int
		data []byte
	}
	model := map[string][]ver{}
	fileIDs := []string{"f0", "f1", "f2"}

	backup := func(fid string, data []byte) error {
		stT, err := twin.ln.Backup(fid, data)
		if err != nil {
			return fmt.Errorf("twin backup %s: %w", fid, err)
		}
		stF, err := fault.ln.Backup(fid, data)
		if err != nil {
			return fmt.Errorf("fault backup %s: %w", fid, err)
		}
		if stT.Version != stF.Version {
			return fmt.Errorf("version skew on %s: twin v%d, fault v%d", fid, stT.Version, stF.Version)
		}
		model[fid] = append(model[fid], ver{stT.Version, data})
		res.Backups++
		return nil
	}

	for round := 0; round < opts.Rounds; round++ {
		res.Rounds++
		// 1. Identical fresh-or-mutated backups land on both repos while
		// every backend is healthy (the container data-then-meta protocol
		// already owns partial-write crash safety; this schedule stresses
		// the redundancy tier).
		for i := 0; i < 1+rng.Intn(2); i++ {
			fid := fileIDs[rng.Intn(len(fileIDs))]
			var data []byte
			if vs := model[fid]; len(vs) > 0 && rng.Intn(2) == 0 {
				data = append([]byte(nil), vs[len(vs)-1].data...)
				for j := 0; j < 4+rng.Intn(12); j++ {
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				}
			} else {
				data = make([]byte, 192<<10+rng.Intn(256<<10))
				rng.Read(data)
			}
			if err := backup(fid, data); err != nil {
				return res, fmt.Errorf("chaos ec: seed %d round %d: %w", opts.Seed, round, err)
			}
		}

		// 2. Damage at most M fault domains: each chosen backend either
		// goes completely dark or gets a handful of shard objects
		// bit-flipped at rest. Never more than M, so every stripe keeps at
		// least K healthy shards and restores must keep succeeding.
		backends := fault.repo.EC.Backends()
		nDamage := 1 + rng.Intn(opts.M)
		damaged := rng.Perm(len(backends))[:nDamage]
		var dark []int
		for _, bi := range damaged {
			if rng.Intn(2) == 0 {
				backends[bi].Faulty.SetOutage(true)
				dark = append(dark, bi)
				res.Outages++
				opts.Log("round %d: backend %d dark", round, bi)
				continue
			}
			keys, err := fault.mem.List(oss.BackendPrefix(bi) + container.Prefix)
			if err != nil {
				return res, err
			}
			var shardKeys []string
			for _, k := range keys {
				if strings.HasSuffix(k, ".data") || strings.HasSuffix(k, ".meta") {
					shardKeys = append(shardKeys, k)
				}
			}
			for j := 0; j < 1+rng.Intn(3) && len(shardKeys) > 0; j++ {
				key := shardKeys[rng.Intn(len(shardKeys))]
				raw, err := fault.mem.Get(key)
				if err != nil {
					return res, err
				}
				raw = bytes.Clone(raw) // a read is read-only: rot is a Put of damaged bytes
				raw[rng.Intn(len(raw))] ^= byte(1 + rng.Intn(255))
				if err := fault.mem.Put(key, raw); err != nil {
					return res, err
				}
				res.ShardsRotted++
				opts.Log("round %d: rotted %s", round, key)
			}
		}

		// 3. Concurrent restores under fire while a scrub repairs through
		// the damage. The restore schedule is drawn before any goroutine
		// starts, keeping the RNG stream deterministic.
		type target struct {
			fid  string
			v    int
			want []byte
		}
		var targets []target
		for i := 0; i < opts.Restores; i++ {
			fid := fileIDs[rng.Intn(len(fileIDs))]
			vs := model[fid]
			if len(vs) == 0 {
				continue
			}
			pick := vs[rng.Intn(len(vs))]
			targets = append(targets, target{fid, pick.v, pick.data})
		}
		errs := make(chan error, len(targets)+1)
		var wg sync.WaitGroup
		for _, tg := range targets {
			wg.Add(1)
			go func(tg target) {
				defer wg.Done()
				var buf bytes.Buffer
				if _, err := fault.ln.Restore(tg.fid, tg.v, &buf); err != nil {
					errs <- fmt.Errorf("restore %s v%d under %d damaged domains: %w", tg.fid, tg.v, nDamage, err)
					return
				}
				if !bytes.Equal(buf.Bytes(), tg.want) {
					errs <- fmt.Errorf("SILENT CORRUPTION: restore %s v%d under damage returned wrong bytes", tg.fid, tg.v)
				}
			}(tg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, err := fault.gn.Scrub()
			if err != nil {
				errs <- fmt.Errorf("scrub under fire: %w", err)
				return
			}
			res.DegradedStripes += sc.ECDegradedStripes
			res.RepairedShards += sc.ECRepairedShards
			res.RepairFailures += sc.ECRepairFailures
			if sc.ECUnrecoverable != 0 {
				errs <- fmt.Errorf("scrub declared %d stripes unrecoverable with only %d ≤ M domains damaged", sc.ECUnrecoverable, nDamage)
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			return res, fmt.Errorf("chaos ec: seed %d round %d: %w", opts.Seed, round, err)
		}
		res.Restores += len(targets)

		// 4. Heal: lift the outages and scrub again — every stripe must
		// come back to full K+M redundancy, loudly counted.
		for _, bi := range dark {
			backends[bi].Faulty.SetOutage(false)
		}
		sc, err := fault.gn.Scrub()
		if err != nil {
			return res, fmt.Errorf("chaos ec: seed %d round %d heal scrub: %w", opts.Seed, round, err)
		}
		res.DegradedStripes += sc.ECDegradedStripes
		res.RepairedShards += sc.ECRepairedShards
		if sc.ECRepairFailures != 0 || sc.ECUnrecoverable != 0 {
			return res, fmt.Errorf("chaos ec: seed %d round %d: heal scrub left damage: %+v", opts.Seed, round, sc)
		}

		// 5. Sometimes reboot the fault repo: journal replay plus fresh
		// (fault-free) backend wrappers, as after a real process crash.
		if rng.Intn(2) == 0 {
			// Tier stats die with the process; bank them first.
			res.DegradedReads += fault.repo.EC.Stats().DegradedReads
			if err := fault.reboot(cfg); err != nil {
				return res, fmt.Errorf("chaos ec: reboot: %w", err)
			}
			res.Reboots++
		}
	}

	res.DegradedReads += fault.repo.EC.Stats().DegradedReads

	// Final: a fault-free verification scrub on both repos must find full
	// redundancy everywhere, every version must restore byte-identical on
	// both sides, and the physical shard state of the fault repo must be
	// indistinguishable from the twin that never saw a fault.
	for name, r := range map[string]*ecRepo{"twin": twin, "fault": fault} {
		sc, err := r.gn.Scrub()
		if err != nil {
			return res, fmt.Errorf("chaos ec: final %s scrub: %w", name, err)
		}
		if sc.ECDegradedStripes != 0 || sc.ECRepairedShards != 0 || sc.ECUnrecoverable != 0 || !sc.Clean() {
			return res, fmt.Errorf("chaos ec: final %s scrub not clean: %+v", name, sc)
		}
	}
	for fid, vs := range model {
		for _, v := range vs {
			var fb, tb bytes.Buffer
			if _, err := fault.ln.Restore(fid, v.v, &fb); err != nil {
				return res, fmt.Errorf("chaos ec: healed restore %s v%d: %w", fid, v.v, err)
			}
			if _, err := twin.ln.Restore(fid, v.v, &tb); err != nil {
				return res, fmt.Errorf("chaos ec: twin restore %s v%d: %w", fid, v.v, err)
			}
			if !bytes.Equal(fb.Bytes(), v.data) || !bytes.Equal(tb.Bytes(), v.data) {
				return res, fmt.Errorf("SILENT CORRUPTION: %s v%d diverges after heal", fid, v.v)
			}
			res.LiveVersions++
		}
	}
	fd, err := fault.shardDump()
	if err != nil {
		return res, err
	}
	td, err := twin.shardDump()
	if err != nil {
		return res, err
	}
	if len(fd) != len(td) {
		return res, fmt.Errorf("chaos ec: shard keyspaces diverge: fault %d objects, twin %d", len(fd), len(td))
	}
	for k, tv := range td {
		fv, ok := fd[k]
		if !ok {
			return res, fmt.Errorf("chaos ec: fault repo is missing shard %s", k)
		}
		if fv != tv {
			return res, fmt.Errorf("chaos ec: repaired shard %s differs from the fault-free twin's", k)
		}
	}
	for _, r := range []*ecRepo{fault, twin} {
		if err := r.mem.Check(); err != nil {
			return res, fmt.Errorf("chaos ec: seed %d: %w", opts.Seed, err)
		}
	}
	return res, nil
}
