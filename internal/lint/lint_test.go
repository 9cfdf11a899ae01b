package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// -update regenerates the golden files from current analyzer output:
//
//	go test ./internal/lint -run TestFixtureGoldens -update
var update = flag.Bool("update", false, "rewrite golden files")

// testLoader returns the one loader of this test binary, rooted at the
// repository: the standard library and the module dependencies (oss,
// core, …) type-check from source once, not once per test. The tests are
// not parallel, so they share it without further locking.
var testLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

func lintFixture(t *testing.T, name string) []Finding {
	t.Helper()
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{filepath.Join("testdata", "src", name)})
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", name, len(pkgs))
	}
	return Run(pkgs)
}

// TestFixtureGoldens pins the exact findings (positions and messages) for
// every positive fixture package, one golden file per analyzer's fixture.
func TestFixtureGoldens(t *testing.T) {
	for _, name := range []string{
		"lockorder_bad", "lnode", "errdisc_bad", "ctxflow_bad",
		"xlock_bad", "oss_retry", "recipe",
	} {
		t.Run(name, func(t *testing.T) {
			findings := lintFixture(t, name)
			if len(findings) == 0 {
				t.Fatalf("%s: fixture produced no findings — the gate would pass bad code", name)
			}
			var buf bytes.Buffer
			WriteHuman(&buf, findings)
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("findings diverge from golden %s:\n--- got\n%s--- want\n%s", golden, buf.Bytes(), want)
			}
		})
	}
}

// TestNegativeFixtures: the all-correct package and the fully-suppressed
// package must both be clean — the suppression syntax in both its forms
// (line above, same line) actually suppresses.
func TestNegativeFixtures(t *testing.T) {
	for _, name := range []string{"clean", "suppress_ok"} {
		if findings := lintFixture(t, name); len(findings) != 0 {
			var buf bytes.Buffer
			WriteHuman(&buf, findings)
			t.Errorf("%s: want 0 findings, got:\n%s", name, buf.String())
		}
	}
}

// TestSpecificInvariants pins the acceptance-critical detections
// independently of golden formatting: lockorder must flag the synthetic
// ContainerLocks-before-FileLocks acquisition, and determinism must flag
// the synthetic time.Now in the lnode fixture and the two historical bugs.
func TestSpecificInvariants(t *testing.T) {
	lockFindings := lintFixture(t, "lockorder_bad")
	if !hasFinding(lockFindings, "lockorder", "acquires FileLocks") {
		t.Error("lockorder did not flag the ContainerLocks-before-FileLocks inversion")
	}
	if !hasFinding(lockFindings, "lockorder", "calls lockFile") {
		t.Error("lockorder did not see through the one-level call graph")
	}
	if !hasFinding(lockFindings, "lockorder", "no reachable Unlock") {
		t.Error("lockorder did not flag the leaked Lock")
	}

	detFindings := lintFixture(t, "lnode")
	if !hasFinding(detFindings, "determinism", "time.Now") {
		t.Error("determinism did not flag time.Now in the lnode fixture")
	}
	if !hasFinding(detFindings, "determinism", "map iteration") {
		t.Error("determinism did not flag map iteration flowing into output")
	}

	// The retry-jitter bug, replayed in a package named oss, must still be
	// caught: wall-clock seeding inside a charged package.
	retryFindings := lintFixture(t, "oss_retry")
	if !hasFinding(retryFindings, "determinism", "time.Now in simclock-charged package oss") {
		t.Error("determinism did not flag the historical oss retry-jitter wall-clock seed")
	}

	// The recipe-index bug, replayed in a package named recipe: the
	// map-order rule reaches the packages that encode store objects, and
	// nothing else of the analyzer does (the fixture reads the wall clock).
	recipeFindings := lintFixture(t, "recipe")
	if len(recipeFindings) != 1 || !hasFinding(recipeFindings, "determinism", `map iteration appends to "buf"`) {
		t.Errorf("determinism on the recipe fixture: want exactly the EncodeIndex map-order finding, got %v", recipeFindings)
	}
}

// TestCrossPackageInversion: the seeded FileLocks-under-ContainerLocks
// inversion in xlock_bad routes through the xlock_dep package, so only
// whole-program resolution can see it; the engine reports both call
// chains.
func TestCrossPackageInversion(t *testing.T) {
	findings := lintFixture(t, "xlock_bad")
	if !hasFinding(findings, "lockorder", "calls xlock_dep.TouchFile, which acquires FileLocks") {
		t.Error("call-graph engine missed the one-frame cross-package inversion")
	}
	if !hasFinding(findings, "lockorder", "calls xlock_dep.TouchViaHelper → xlock_dep.TouchFile") {
		t.Error("call-graph engine missed the two-frame cross-package inversion chain")
	}
}

func hasFinding(fs []Finding, analyzer, substr string) bool {
	for _, f := range fs {
		if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
			return true
		}
	}
	return false
}

// TestSuppressionHygiene: unused and unknown-analyzer directives are
// findings too — a stale excuse must not silently linger.
func TestSuppressionHygiene(t *testing.T) {
	dir := t.TempDir()
	src := `package clean

// an unused excuse:
//slimlint:ignore determinism this line has no finding to excuse

// an unknown analyzer:
//slimlint:ignore nosuchthing reason text
var X = 1
`
	writeTempModulePkg(t, dir, "hygiene", src)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{filepath.Join(dir, "hygiene")})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs)
	if !hasFinding(findings, "suppression", "unused determinism suppression") {
		t.Errorf("unused directive not reported; got %v", findings)
	}
	if !hasFinding(findings, "suppression", `unknown analyzer "nosuchthing"`) {
		t.Errorf("unknown analyzer not reported; got %v", findings)
	}
}

// writeTempModulePkg lays out a throwaway module with one package so
// loader tests don't depend on the repository tree.
func writeTempModulePkg(t *testing.T, moduleDir, pkg, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(moduleDir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(moduleDir, pkg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(moduleDir, pkg, pkg+".go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTreeIsClean dogfoods the gate from go test: the repository itself
// must carry zero findings. scripts/check.sh also runs the CLI form, but
// failing here keeps `go test ./...` sufficient to catch a regression.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is a few seconds; skipped in -short")
	}
	l, err := testLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load([]string{l.ModuleDir + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages from the module — the walker lost most of the tree", len(pkgs))
	}
	findings := Run(pkgs)
	if len(findings) != 0 {
		var buf bytes.Buffer
		WriteHuman(&buf, findings)
		t.Errorf("the tree has slimlint findings:\n%s", buf.String())
	}
}
