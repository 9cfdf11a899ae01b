package bench

import (
	"fmt"
	"io"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/workload"
)

func init() {
	register("fig9a", "Fig 9(a): space cost (no-dedup / L-dedupe / G-dedupe / keep-last-10)", runFig9a)
	register("fig9b", "Fig 9(b): space occupied by version 0 over time", runFig9b)
}

// spaceChain is one full SLIMSTORE deployment whose container space is
// tracked per version.
type spaceChain struct {
	mem  *oss.Mem
	repo *core.Repo
	ln   *lnode.LNode
	gn   *gnode.GNode
}

func newSpaceChain() (*spaceChain, error) {
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, benchConfig())
	if err != nil {
		return nil, err
	}
	return &spaceChain{mem: mem, repo: repo, ln: lnode.New(repo, "L0"), gn: gnode.New(repo)}, nil
}

func (c *spaceChain) containerBytes() int64 { return c.mem.BytesWithPrefix("containers/") }

func runFig9a(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	const retain = 10

	lOnly, err := newSpaceChain()
	if err != nil {
		return err
	}
	full, err := newSpaceChain()
	if err != nil {
		return err
	}
	keep10, err := newSpaceChain()
	if err != nil {
		return err
	}

	type row struct{ logical, lDedupe, gDedupe, keep10 int64 }
	rows := make([]row, versions)
	var logical int64

	for v := 0; v < versions; v++ {
		for i := 0; i < s.Files; i++ {
			data := gen.Version(i, v)
			logical += int64(len(data))
			fileID := gen.FileIDs()[i]

			if _, err := lOnly.ln.Backup(fileID, data); err != nil {
				return err
			}

			st, err := full.ln.Backup(fileID, data)
			if err != nil {
				return err
			}
			if _, _, err := full.gn.Optimize(fileID, v, st.NewContainers, st.SparseContainers); err != nil {
				return err
			}

			st2, err := keep10.ln.Backup(fileID, data)
			if err != nil {
				return err
			}
			if _, _, err := keep10.gn.Optimize(fileID, v, st2.NewContainers, st2.SparseContainers); err != nil {
				return err
			}
			if v >= retain {
				if _, err := keep10.gn.DeleteVersion(fileID, v-retain); err != nil {
					return err
				}
			}
		}
		rows[v] = row{
			logical: logical,
			lDedupe: lOnly.containerBytes(),
			gDedupe: full.containerBytes(),
			keep10:  keep10.containerBytes(),
		}
	}

	t := newTable(w, "Fig 9(a): occupied container space per version")
	t.row("ver", "no-dedup", "l-dedupe", "g-dedupe", "keep-last-10", "l reduction", "g extra")
	for v := 0; v < versions; v += versionStep(versions) {
		r := rows[v]
		gExtra := 0.0
		if r.lDedupe > 0 {
			gExtra = 1 - float64(r.gDedupe)/float64(r.lDedupe)
		}
		t.row(fmt.Sprint(v), mib(r.logical), mib(r.lDedupe), mib(r.gDedupe), mib(r.keep10),
			fmt.Sprintf("%.1fx", float64(r.logical)/float64(max64(r.lDedupe, 1))), pct(gExtra))
	}
	// Always include the final row (the paper's headline numbers).
	last := rows[versions-1]
	t.row(fmt.Sprint(versions-1), mib(last.logical), mib(last.lDedupe), mib(last.gDedupe),
		mib(last.keep10),
		fmt.Sprintf("%.1fx", float64(last.logical)/float64(max64(last.lDedupe, 1))),
		pct(1-float64(last.gDedupe)/float64(max64(last.lDedupe, 1))))
	t.flush()
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func runFig9b(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	fileIdx := 0
	fileID := gen.FileIDs()[fileIdx]

	chain, err := newSpaceChain()
	if err != nil {
		return err
	}

	// Version 0's original containers; their live bytes shrink over time
	// as reverse dedup and SCC move data into newer versions.
	var v0Containers []container.ID
	v0Space := func() (int64, error) {
		var total int64
		for _, id := range v0Containers {
			m, err := chain.repo.Containers.ReadMeta(id)
			if err != nil {
				continue // container fully collected
			}
			total += m.LiveBytes()
		}
		return total, nil
	}

	t := newTable(w, "Fig 9(b): space occupied by version 0 over time (no version collection)")
	t.row("after ver", "v0 live bytes", "of original")
	var initial int64
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		st, err := chain.ln.Backup(fileID, data)
		if err != nil {
			return err
		}
		if v == 0 {
			v0Containers = st.NewContainers
		}
		if _, _, err := chain.gn.Optimize(fileID, v, st.NewContainers, st.SparseContainers); err != nil {
			return err
		}
		sp, err := v0Space()
		if err != nil {
			return err
		}
		if v == 0 {
			initial = sp
		}
		if v%versionStep(versions) == 0 || v == versions-1 {
			t.row(fmt.Sprint(v), mib(sp), pct(float64(sp)/float64(max64(initial, 1))))
		}
		return nil
	})
	if err != nil && err != errDone {
		return err
	}
	t.flush()
	return nil
}
