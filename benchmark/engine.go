package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/jobs"
	"slimstore/internal/lnode"

	"slimstore/benchmark/meter"
)

// engineRep drives the dataset through jobs.Engine from `clients`
// closed-loop callers. Each version is one phase whose mixed job list
// interleaves, per file, the backup of that version (followed by its
// Optimize job) with a restore of the previous version — the newest
// complete one; a further phase verifies the latest version of every file.
// That engine's repo handle lives for all of these phases, so the shared
// restore cache is warm and contended on purpose. Version 0 is then
// restored through a second engine over a fresh handle: with a warm cache
// nearly every such restore is a 4 ms hit and the few that miss a
// compacted container cost 100 ms each, so their sum would measure the
// seed, not the system.
func (x *runner) engineRep(r *rep, repSpan meter.SpanID, store *meter.Store) {
	s, d := x.spec, x.data
	ctx := context.Background()
	var repo *core.Repo
	var eng *jobs.Engine
	open := func() bool {
		var err error
		if repo, err = core.OpenRepo(store, s.config()); !r.ok("open repo", err) {
			return false
		}
		eng = jobs.New(repo, gnode.New(repo), jobs.Options{LNodes: clients})
		return true
	}
	shut := func() {
		eng.Close()
		r.ok("close engine repo", repo.Global.Close())
	}
	if !open() {
		return
	}

	// job runs one engine job Submit→Wait under an operation span.
	// Requests run on engine goroutines the harness cannot see into, so
	// they stay children of the phase.
	job := func(ph meter.SpanID, layer, kind string, bytes int64, j jobs.Job, after func(jobs.Result) error) {
		id := x.tr.BeginOp(ph, layer, kind)
		t0 := time.Now()
		var res jobs.Result
		tk, err := eng.Submit(ctx, j)
		if err == nil {
			res = tk.Wait()
			err = res.Err
		}
		dur := time.Since(t0)
		x.tr.End(id)
		if err == nil {
			err = after(res)
		}
		r.record(kind, bytes, dur, err)
	}
	backup := func(ph meter.SpanID, f, v int) {
		data := d.versions[f][v]
		var st *lnode.BackupStats
		job(ph, "lnode", backupKind(v), int64(len(data)),
			jobs.Job{Kind: jobs.Backup, FileID: d.ids[f], Data: data},
			func(res jobs.Result) error {
				st = res.Backup
				r.noteBackup(st)
				return nil
			})
		if st == nil {
			return
		}
		job(ph, "gnode", kOptimize, st.LogicalBytes,
			jobs.Job{Kind: jobs.Optimize, FileID: st.FileID, Version: st.Version,
				NewContainers: st.NewContainers, Sparse: st.SparseContainers},
			func(res jobs.Result) error {
				r.noteOptimize(res.Reverse, res.SCC)
				return nil
			})
	}
	restore := func(ph meter.SpanID, kind string, f, v int) {
		want := d.versions[f][v]
		w := meter.NewCompareWriter(want)
		job(ph, "lnode", kind, int64(len(want)),
			jobs.Job{Kind: jobs.Restore, FileID: d.ids[f], Version: v, Out: w},
			func(res jobs.Result) error {
				r.noteRestore(res.Restore)
				return w.Finish()
			})
	}
	// perFile builds one work item per file.
	perFile := func(fn func(ph meter.SpanID, f int)) []func(meter.SpanID) {
		items := make([]func(meter.SpanID), len(d.ids))
		for f := range d.ids {
			items[f] = func(ph meter.SpanID) { fn(ph, f) }
		}
		return items
	}

	last := s.versions - 1
	for v := 0; v <= last; v++ {
		var items []func(ph meter.SpanID)
		for f := range d.ids {
			items = append(items, func(ph meter.SpanID) { backup(ph, f, v) })
			if v > 0 {
				items = append(items, func(ph meter.SpanID) { restore(ph, kRestoreLatest, f, v-1) })
			}
		}
		c0 := store.Counters()
		x.phase(r, repSpan, fmt.Sprintf("v%d", v), func(ph meter.SpanID) { fanOut(ph, items) })
		if v == 0 { // the only phase that is pure ingest
			r.ingest = store.Counters().Sub(c0)
		}
	}
	x.phase(r, repSpan, "verify latest", func(ph meter.SpanID) {
		fanOut(ph, perFile(func(ph meter.SpanID, f int) {
			job(ph, "lnode", kVerify, int64(len(d.versions[f][last])),
				jobs.Job{Kind: jobs.Verify, FileID: d.ids[f], Version: last},
				func(res jobs.Result) error {
					r.noteVerify(res.Restore)
					return nil
				})
		}))
	})
	r.shared = eng.SharedCacheStats()
	r.index = repo.Global.Stats()
	shut()

	if !open() {
		return
	}
	x.phase(r, repSpan, "restore oldest", func(ph meter.SpanID) {
		fanOut(ph, perFile(func(ph meter.SpanID, f int) { restore(ph, kRestoreOldest, f, 0) }))
	})
	shut()
}

// fanOut runs items from `clients` goroutines, each taking the next item
// when its previous one completed (closed loop), and waits for all.
func fanOut(ph meter.SpanID, items []func(ph meter.SpanID)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				items[i](ph)
			}
		}()
	}
	wg.Wait()
}
