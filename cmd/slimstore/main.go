// Command slimstore is the backup/restore CLI over a SLIMSTORE repository.
//
// The repository lives on an object store selected with -repo:
//
//	-repo dir:/path/to/dir     local directory (default)
//	-repo http://host:port     remote object-store server (cmd/ossserver)
//
// Subcommands:
//
//	slimstore init    -repo dir:/backups [-shards N] [-replicas M] [-ec-data K -ec-parity M]
//	slimstore backup  -repo dir:/backups -file <local path> [-as <name>]
//	slimstore restore -repo dir:/backups -name <name> [-version N] -out <path>
//	slimstore snapshot -repo dir:/backups -dir <directory> -id <name> [-jobs N]
//	slimstore restore-snapshot -repo dir:/backups -id <name> -out <directory> [-jobs N]
//	slimstore snapshots -repo dir:/backups
//	slimstore verify  -repo dir:/backups -name <name> [-version N] [-jobs N]
//	slimstore list    -repo dir:/backups
//	slimstore delete  -repo dir:/backups -name <name> -version N
//	slimstore gc      -repo dir:/backups
//	slimstore scrub   -repo dir:/backups
//	slimstore stats   -repo dir:/backups
//
// restore and restore-snapshot are atomic at -out: the bytes go to
// <out>.partial-* beside the target and are renamed over it only when the
// whole restore (every member, for a snapshot) succeeded; a failed restore
// removes its partial files and leaves whatever -out held.
//
// The three multi-job commands (snapshot, restore-snapshot, verify) run one
// job per file or version through the job engine; -jobs is its width, the
// only concurrency setting. Everything else is one call on this goroutine.
//
// A repository records its layout in a header when it is created and every
// command reads it from there. init creates one with a chosen layout
// (-shards, -replicas: the global-index topology, DESIGN §11; -ec-data,
// -ec-parity: the erasure-coded container tier, DESIGN §12); against an
// existing repository it succeeds when the values given equal the recorded
// ones and names the field that differs otherwise. Any other command
// against an empty location creates a default-layout repository.
//
// Any subcommand additionally accepts -pprof <path>: a CPU profile of
// the whole run is written there, for profiling maintenance commands
// (scrub, gc) against real repositories.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"slimstore"
)

// opened is the System the command opened, closed once it is done.
var opened *slimstore.System

// openSystem opens the repository or exits. cfg's layout fields are zero —
// the repository's header supplies them, the defaults for an empty
// location — except what init was given.
func openSystem(repo string, cfg slimstore.Config) *slimstore.System {
	var sys *slimstore.System
	var err error
	switch {
	case strings.HasPrefix(repo, "dir:"):
		sys, err = slimstore.OpenDirectory(strings.TrimPrefix(repo, "dir:"), cfg)
	case strings.HasPrefix(repo, "http://"), strings.HasPrefix(repo, "https://"):
		sys, err = slimstore.OpenHTTP(repo, nil, cfg)
	case repo == "mem:":
		sys, err = slimstore.OpenMemory(cfg)
	default:
		err = fmt.Errorf("repo %q: want dir:<path>, http(s)://..., or mem:", repo)
	}
	if err != nil {
		fatalf("%v", err)
	}
	opened = sys
	return sys
}

// printLayout prints what the repository's header records.
func printLayout(sys *slimstore.System) {
	c := sys.Config()
	fmt.Printf("layout: fingerprint=%v chunking=%s/%d-%d-%d shards=%d replicas=%d ec-data=%d ec-parity=%d\n",
		c.FingerprintAlg, c.ChunkAlgo, c.ChunkParams.Min, c.ChunkParams.Avg, c.ChunkParams.Max,
		c.GlobalShards, c.GlobalReplicas, c.ECDataShards, c.ECParityShards)
}

func fatalf(format string, args ...any) {
	stopProfile()
	fmt.Fprintf(os.Stderr, "slimstore: "+format+"\n", args...)
	os.Exit(1)
}

// partial is a restore's output on its way to path: the bytes go to a
// temporary file beside it, which commit renames over path and discard
// removes — so path only ever changes to a whole, successful restore, and
// a failed one leaves whatever was there.
type partial struct {
	*os.File
	path string
}

func createPartial(path string) (*partial, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".partial-*")
	if err != nil {
		return nil, err
	}
	return &partial{File: f, path: path}, nil
}

func (p *partial) commit() error {
	err := p.Chmod(0o644) // CreateTemp's 0600 is for secrets, not restored files
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(p.Name(), p.path)
	}
	if err != nil {
		os.Remove(p.Name())
	}
	return err
}

func (p *partial) discard() {
	p.Close()
	os.Remove(p.Name())
}

// stopProfile finalises the CPU profile started by -pprof. Both fatalf
// and the end of main run it, so the profile file is valid on every
// exit path that got as far as parsing flags.
var stopProfile = func() {}

// startPProf strips a leading-anywhere -pprof <path> (or -pprof=<path>)
// from args and starts a CPU profile there. It runs before the
// per-subcommand flag.Parse so the profile covers repository open and
// the whole command, not just the tail after parsing.
func startPProf(args []string) []string {
	path := ""
	rest := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := strings.TrimPrefix(strings.TrimPrefix(args[i], "-"), "-")
		if a == "pprof" && i+1 < len(args) {
			path = args[i+1]
			i++
			continue
		}
		if strings.HasPrefix(a, "pprof=") {
			path = strings.TrimPrefix(a, "pprof=")
			continue
		}
		rest = append(rest, args[i])
	}
	if path == "" {
		return rest
	}
	f, err := os.Create(path)
	if err != nil {
		fatalf("pprof: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fatalf("pprof: %v", err)
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		f.Close()
		stopProfile = func() {}
	}
	return rest
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: slimstore <init|backup|restore|verify|snapshot|restore-snapshot|snapshots|list|delete|gc|scrub|stats> [flags]")
		os.Exit(2)
	}
	cmd, args := os.Args[1], startPProf(os.Args[2:])
	defer stopProfile()
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	repo := fs.String("repo", "dir:./slimstore-repo", "repository location")
	cfg := slimstore.DefaultConfig()
	cfg.ChunkAlgo, cfg.ChunkParams = "", slimstore.Config{}.ChunkParams // the repository's

	switch cmd {
	case "init":
		fs.IntVar(&cfg.GlobalShards, "shards", 0, "global index shards (0 = the repository's, 1 for a new one)")
		fs.IntVar(&cfg.GlobalReplicas, "replicas", 0, "replicas per index shard, 2f+1 (0 = the repository's, 1 for a new one)")
		fs.IntVar(&cfg.ECDataShards, "ec-data", 0, "erasure-coding data shards K (0 = the repository's, no striping for a new one)")
		fs.IntVar(&cfg.ECParityShards, "ec-parity", 0, "erasure-coding parity shards M, with -ec-data (0 = the repository's)")
		fs.Parse(args)
		printLayout(openSystem(*repo, cfg))

	case "backup":
		file := fs.String("file", "", "local file to back up")
		as := fs.String("as", "", "backup name (defaults to the file path)")
		fs.Parse(args)
		if *file == "" {
			fatalf("backup: -file is required")
		}
		name := *as
		if name == "" {
			name = *file
		}
		f, err := os.Open(*file)
		if err != nil {
			fatalf("%v", err)
		}
		sys := openSystem(*repo, cfg)
		st, err := sys.BackupStream(name, f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
		if _, _, err := sys.Optimize(st); err != nil {
			fatalf("optimize: %v", err)
		}
		fmt.Printf("backed up %q version %d: %d bytes, %.1f%% duplicates eliminated, %d chunks\n",
			name, st.Version, st.LogicalBytes, st.DedupRatio()*100, st.NumChunks)

	case "restore":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to restore (-1 = latest)")
		out := fs.String("out", "", "output path")
		fs.Parse(args)
		if *name == "" || *out == "" {
			fatalf("restore: -name and -out are required")
		}
		sys := openSystem(*repo, cfg)
		v := *version
		if v < 0 {
			vs, err := sys.Versions(*name)
			if err != nil || len(vs) == 0 {
				fatalf("no versions of %q", *name)
			}
			v = vs[len(vs)-1]
		}
		f, err := createPartial(*out)
		if err != nil {
			fatalf("%v", err)
		}
		st, err := sys.Restore(*name, v, f)
		if err != nil {
			f.discard()
			fatalf("%v", err)
		}
		if err := f.commit(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("restored %q version %d: %d bytes (%d container reads, %d shared-cache hits, %d singleflight joins, %d ranged reads/%d spans)\n",
			*name, v, st.Bytes, st.Cache.ContainersRead,
			st.Cache.SharedHits, st.Cache.SharedJoins, st.Cache.RangedReads, st.Cache.RangedSpans)
		fmt.Printf("prefetch: %d slots dispatched, %d consumed, %d direct fetches, %d cancelled\n",
			st.Prefetch.Dispatched, st.Prefetch.Consumed, st.Prefetch.Direct, st.Prefetch.Cancelled)

	case "list":
		fs.Parse(args)
		sys := openSystem(*repo, cfg)
		files, err := sys.Files()
		if err != nil {
			fatalf("%v", err)
		}
		for _, f := range files {
			vs, err := sys.Versions(f)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s: versions %v\n", f, vs)
		}

	case "delete":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to delete")
		fs.Parse(args)
		if *name == "" || *version < 0 {
			fatalf("delete: -name and -version are required")
		}
		sys := openSystem(*repo, cfg)
		gc, err := sys.DeleteVersion(*name, *version)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("deleted %q version %d: %d containers collected, %d bytes reclaimed\n",
			*name, *version, gc.ContainersCollected, gc.BytesReclaimed)

	case "snapshot":
		dir := fs.String("dir", "", "directory to back up")
		id := fs.String("id", "", "snapshot ID (e.g. a timestamp)")
		jobsN := fs.Int("jobs", 4, "concurrent backup jobs")
		fs.Parse(args)
		if *dir == "" || *id == "" {
			fatalf("snapshot: -dir and -id are required")
		}
		files := map[string][]byte{}
		err := filepath.WalkDir(*dir, func(p string, d iofs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(*dir, p)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(rel)] = b
			return nil
		})
		if err != nil {
			fatalf("%v", err)
		}
		if len(files) == 0 {
			fatalf("snapshot: %s contains no files", *dir)
		}
		sys := openSystem(*repo, cfg)
		snap, err := sys.BackupSnapshot(*id, files, *jobsN)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("snapshot %q: %d files, %d bytes\n", snap.ID, len(snap.Members), snap.TotalBytes)

	case "restore-snapshot":
		id := fs.String("id", "", "snapshot ID")
		outDir := fs.String("out", "", "output directory")
		jobsN := fs.Int("jobs", 4, "concurrent restore jobs")
		fs.Parse(args)
		if *id == "" || *outDir == "" {
			fatalf("restore-snapshot: -id and -out are required")
		}
		sys := openSystem(*repo, cfg)
		var files []*partial
		err := sys.RestoreSnapshot(*id, func(fileID string) (io.Writer, error) {
			p := filepath.Join(*outDir, filepath.FromSlash(fileID))
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				return nil, err
			}
			f, err := createPartial(p)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			return f, nil
		}, *jobsN)
		// All or nothing: no member lands unless every member restored.
		for _, f := range files {
			if err != nil {
				f.discard()
			} else {
				err = f.commit()
			}
		}
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("snapshot %q restored to %s\n", *id, *outDir)

	case "snapshots":
		fs.Parse(args)
		sys := openSystem(*repo, cfg)
		ids, err := sys.Snapshots()
		if err != nil {
			fatalf("%v", err)
		}
		for _, id := range ids {
			snap, err := sys.SnapshotInfo(id)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%s: %d files, %d bytes\n", snap.ID, len(snap.Members), snap.TotalBytes)
		}

	case "verify":
		name := fs.String("name", "", "backup name")
		version := fs.Int("version", -1, "version to verify (-1 = all)")
		jobsN := fs.Int("jobs", 4, "concurrent verify jobs")
		fs.Parse(args)
		if *name == "" {
			fatalf("verify: -name is required")
		}
		sys := openSystem(*repo, cfg)
		versions := []int{*version}
		if *version < 0 {
			var err error
			if versions, err = sys.Versions(*name); err != nil {
				fatalf("%v", err)
			}
		}
		eng := sys.NewEngine(slimstore.EngineOptions{LNodes: *jobsN})
		var verifies []slimstore.Job
		for _, v := range versions {
			verifies = append(verifies, slimstore.Job{
				Kind: slimstore.JobVerify, FileID: *name, Version: v,
			})
		}
		results := eng.Run(context.Background(), verifies)
		eng.Close()
		for _, r := range results {
			if r.Err != nil {
				fatalf("verify %q v%d: %v", r.Job.FileID, r.Job.Version, r.Err)
			}
			fmt.Printf("verified %q version %d: %d bytes intact\n", r.Job.FileID, r.Job.Version, r.Restore.Bytes)
		}
		es := eng.Stats()
		fmt.Printf("verify summary: %d jobs, %d bytes verified (prefetch: %d dispatched, %d consumed, %d direct)\n",
			es.VerifyJobs, es.VerifiedBytes, es.PrefetchDispatched, es.PrefetchConsumed, es.PrefetchDirect)

	case "gc":
		fs.Parse(args)
		sys := openSystem(*repo, cfg)
		audit, err := sys.Audit()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("audit: %d containers live, %d swept, %d bytes reclaimed\n",
			audit.ContainersMarked, audit.ContainersSwept, audit.BytesReclaimed)

	case "scrub":
		fs.Parse(args)
		sys := openSystem(*repo, cfg)
		st, err := sys.Scrub()
		if err != nil {
			fatalf("scrub: %v", err)
		}
		fmt.Printf("scrub: %d containers scanned, %d chunks verified, %d corrupt, %d repaired, %d containers rebuilt\n",
			st.ContainersScanned, st.ChunksVerified, st.CorruptChunks, st.RepairedChunks, st.RebuiltContainers)
		if len(st.Quarantined) > 0 {
			fmt.Printf("quarantined: %v\n", st.Quarantined)
		}
		for _, fp := range st.Lost {
			fmt.Printf("LOST: chunk %s is unrecoverable; affected versions will fail to restore\n", fp.Short())
		}

	case "stats":
		fs.Parse(args)
		sys := openSystem(*repo, cfg)
		m, err := sys.Metrics()
		if err != nil {
			fatalf("%v", err)
		}
		u, kv := m.Space, m.GlobalIndex.KV
		fmt.Printf("containers: %d bytes\nrecipes:    %d bytes\nindexes:    %d bytes\ntotal:      %d bytes\n",
			u.ContainerBytes, u.RecipeBytes, u.IndexBytes, u.TotalBytes)
		// This process's engine counters, summed over shards.
		fmt.Printf("global index: %d entries, %d tables, %d wal segments (%d replayed at open), %d syncs, %d flushes, %d compactions\n",
			m.GlobalIndex.Entries, kv.TablesLive, kv.WALSegments, kv.WALReplayed, kv.Syncs, kv.Flushes, kv.Compactions)
		fmt.Printf("sha1 kernel: %s\n", slimstore.SHA1Kernel())
		printLayout(sys)

	default:
		fatalf("unknown command %q", cmd)
	}
	// A clean close flushes the global index: the next command's open
	// replays no log.
	if opened != nil {
		if err := opened.Close(); err != nil {
			fatalf("close: %v", err)
		}
	}
}
