package bench

import (
	"io"
	"testing"

	"slimstore/internal/core"
	"slimstore/internal/lnode"
	"slimstore/internal/workload"
)

// Shape regression tests: each locks in one headline claim of the paper so
// a change that silently breaks a reproduction property fails CI, not just
// drifts in slimbench output. They run at the 8 MiB scale (a few seconds).

func TestTable2Shape_PrefetchSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test")
	}
	gen := workload.New(workload.SDB(2, 8<<20))
	repo, ln, err := slimChain(gen, 1, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	fileID := gen.FileIDs()[1]
	tput := map[int]float64{}
	for _, threads := range []int{0, 2, 6, 10} {
		st, err := restoreWith(repo, ln, fileID, 5, "fv", 8<<20, threads)
		if err != nil {
			t.Fatal(err)
		}
		tput[threads] = st.ThroughputMBps()
	}
	// Paper Table II: unprefetched slow; throughput ramps with threads and
	// saturates at the CPU-bound ceiling (~208 MB/s under DefaultCosts).
	if tput[0] > 60 {
		t.Errorf("unprefetched restore %1.f MB/s, want OSS-latency bound (<60)", tput[0])
	}
	if tput[2] < tput[0]*1.5 {
		t.Errorf("2 threads (%.1f) did not clearly beat 0 threads (%.1f)", tput[2], tput[0])
	}
	// A ramp, not a step: two channels cannot be worth more than three
	// times none unless the later rows were served from a cache the first
	// one filled.
	if tput[2] > tput[0]*3 {
		t.Errorf("2 threads (%.1f) more than 3x 0 threads (%.1f): restores after the first are not paying for their reads", tput[2], tput[0])
	}
	if tput[6] < tput[2] {
		t.Errorf("6 threads (%.1f) slower than 2 (%.1f)", tput[6], tput[2])
	}
	// Saturation: 10 threads gains < 15% over 6.
	if tput[10] > tput[6]*1.15 {
		t.Errorf("no saturation: 6 threads %.1f, 10 threads %.1f", tput[6], tput[10])
	}
	if tput[10] < 150 || tput[10] > 250 {
		t.Errorf("ceiling %.1f MB/s, want ~208 (calibration drift?)", tput[10])
	}
}

// TestFig8abShape_FVLeadsAtSmallCache holds the driver to the paper's
// Fig 8(a,b) result at the small cache: the full-vision cache restores no
// slower than OPT or ALACC at any version past the first. The three
// policies restore one after another through one handle, so the order is
// also what fails if a restore finds the previous one's reads cached.
func TestFig8abShape_FVLeadsAtSmallCache(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test")
	}
	const fileBytes, versions = 8 << 20, 8
	gen := workload.New(workload.SDB(2, fileBytes))
	repo, ln, err := slimChain(gen, 0, versions, false)
	if err != nil {
		t.Fatal(err)
	}
	fileID := gen.FileIDs()[0]
	for v := 1; v < versions; v++ {
		tput := map[string]float64{}
		for _, policy := range []string{"fv", "opt", "alacc"} {
			st, err := restoreWith(repo, ln, fileID, v, policy, fileBytes/8, 0)
			if err != nil {
				t.Fatal(err)
			}
			tput[policy] = st.ThroughputMBps()
		}
		if tput["fv"] < tput["opt"] || tput["fv"] < tput["alacc"] {
			t.Errorf("v%d: fv %.1f MB/s behind opt %.1f or alacc %.1f", v, tput["fv"], tput["opt"], tput["alacc"])
		}
	}
}

func TestFig8cShape_SCCStabilisesReadAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test")
	}
	gen := workload.New(workload.SDB(2, 8<<20))
	const versions = 8
	withSCC, lnA, err := slimChain(gen, 0, versions, true)
	if err != nil {
		t.Fatal(err)
	}
	noSCC, lnB, err := slimChain(gen, 0, versions, false)
	if err != nil {
		t.Fatal(err)
	}
	fileID := gen.FileIDs()[0]
	ampAt := func(repo *core.Repo, ln *lnode.LNode, v int) float64 {
		st, err := restoreWith(repo, ln, fileID, v, "fv", 8<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st.Cache.ReadAmplification()
	}
	// Paper Fig 8(c): without SCC read amplification keeps growing; with
	// SCC the newest version's amplification is lower than without.
	early := ampAt(noSCC, lnB, 1)
	late := ampAt(noSCC, lnB, versions-1)
	if late <= early {
		t.Errorf("no-SCC amplification did not grow: v1=%.0f v%d=%.0f", early, versions-1, late)
	}
	sccLate := ampAt(withSCC, lnA, versions-1)
	if sccLate >= late {
		t.Errorf("SCC did not help the newest version: %.0f vs %.0f", sccLate, late)
	}
}

func TestFig10Shape_ResticIndexCap(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test")
	}
	var out io.Writer = io.Discard
	// The full driver asserts nothing; run the lightweight variant here by
	// checking the cap directly via the baseline's knobs in the driver.
	// (Executing the experiment exercises the whole path; the cap property
	// is asserted by TestResticRoundTripAndLockAccounting in baseline.)
	e, ok := ByID("fig10a")
	if !ok {
		t.Fatal("fig10a missing")
	}
	if err := e.Run(out, Scale{Files: 2, FileBytes: 2 << 20, Versions: 3}); err != nil {
		t.Fatal(err)
	}
}
