package lockrank_test

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/leakcheck"
	"slimstore/internal/lockrank"
	"slimstore/internal/lockrank/testdata/xlock"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// node is the shape of the former lockorder fixtures, on real core lock
// tables: each method below is one of their findings or negative
// controls, now executed.
type node struct {
	maint  core.MaintLock
	files  core.FileLocks
	clocks core.ContainerLocks
}

const id, file = container.ID(7), "f"

func (n *node) containerBeforeFile() {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	n.files.Lock(file)
	defer n.files.Unlock(file)
}

func (n *node) lockFile() {
	n.files.Lock(file)
	defer n.files.Unlock(file)
}

func (n *node) callsSiblingHoldingContainer() {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	n.lockFile()
}

func (n *node) inversionAcrossPackages() {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	xlock.TouchFile(&n.files, file)
}

func (n *node) deepInversion() {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	xlock.TouchViaHelper(&n.files, file)
}

func (n *node) maintUnderFile() {
	n.files.Lock(file)
	defer n.files.Unlock(file)
	n.maint.Lock()
	defer n.maint.Unlock()
}

func (n *node) relockContainer() {
	release := n.clocks.Pin([]container.ID{id})
	defer release()
	n.clocks.Lock(id + 1)
	defer n.clocks.Unlock(id + 1)
}

func (n *node) leak() {
	n.files.Lock(file)
}

func (n *node) dropsRelease() {
	_ = n.clocks.Pin([]container.ID{id, id + 1})
}

func (n *node) properOrder() {
	n.maint.Lock()
	defer n.maint.Unlock()
	n.files.Lock(file)
	defer n.files.Unlock(file)
	release := n.clocks.Pin([]container.ID{id, id + 1})
	defer release()
}

func (n *node) returnsRelease() func() {
	release := n.clocks.Pin([]container.ID{id})
	return release
}

func (n *node) orderedCaller() {
	xlock.TouchFile(&n.files, file)
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
}

// panicOf runs fn and returns what it panicked with and the stack at the
// panic, or "" if it did not.
func panicOf(fn func()) (msg, stack string) {
	defer func() {
		if r := recover(); r != nil {
			msg, stack = fmt.Sprint(r), string(debug.Stack())
		}
	}()
	fn()
	return "", ""
}

// TestFormerFindingsPanicAtTheirSite: every ranked-family finding the
// static lockorder analyzer had fixtures for fails when it runs, naming
// the acquisition out of rank and the one it came under; the call chain
// between them is the panic's stack.
func TestFormerFindingsPanicAtTheirSite(t *testing.T) {
	for _, c := range []struct {
		name        string
		run         func(*node)
		taken, held string // functions the message names for each site
		chain       []string
	}{
		{"container-then-file", (*node).containerBeforeFile,
			"FileLocks taken at slimstore/internal/lockrank_test.(*node).containerBeforeFile",
			"ContainerLocks is held, taken at slimstore/internal/lockrank_test.(*node).containerBeforeFile", nil},
		{"through a sibling", (*node).callsSiblingHoldingContainer,
			"FileLocks taken at slimstore/internal/lockrank_test.(*node).lockFile",
			"ContainerLocks is held, taken at slimstore/internal/lockrank_test.(*node).callsSiblingHoldingContainer",
			[]string{"callsSiblingHoldingContainer"}},
		{"one frame into another package", (*node).inversionAcrossPackages,
			"FileLocks taken at slimstore/internal/lockrank/testdata/xlock.TouchFile",
			"ContainerLocks is held, taken at slimstore/internal/lockrank_test.(*node).inversionAcrossPackages",
			[]string{"inversionAcrossPackages"}},
		{"two frames into another package", (*node).deepInversion,
			"FileLocks taken at slimstore/internal/lockrank/testdata/xlock.TouchFile",
			"ContainerLocks is held, taken at slimstore/internal/lockrank_test.(*node).deepInversion",
			[]string{"xlock.TouchViaHelper", "deepInversion"}},
		{"maintMu under a file stripe", (*node).maintUnderFile,
			"maintMu taken at slimstore/internal/lockrank_test.(*node).maintUnderFile",
			"FileLocks is held, taken at slimstore/internal/lockrank_test.(*node).maintUnderFile", nil},
		{"a second container acquisition", (*node).relockContainer,
			"ContainerLocks taken at slimstore/internal/lockrank_test.(*node).relockContainer",
			"ContainerLocks is held, taken at slimstore/internal/lockrank_test.(*node).relockContainer", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			msg, stack := panicOf(func() { c.run(new(node)) })
			if !strings.Contains(msg, c.taken+" (") || !strings.Contains(msg, c.held+" (") {
				t.Fatalf("panic %q\nwant the sites %q and %q", msg, c.taken, c.held)
			}
			for _, fn := range c.chain {
				if !strings.Contains(stack, fn) {
					t.Errorf("panic stack lacks %s:\n%s", fn, stack)
				}
			}
			if held := lockrank.Held(); len(held) != 0 {
				t.Errorf("after the defers ran, still held: %v", held)
			}
		})
	}
}

// TestLeaksAreHeldAtTheirSite: a Lock with no Unlock and a discarded Pin
// release leave their rank held, named by the site that took it — what
// leakcheck.Main reports once a package's tests end. The test then lets
// the record go so that this package passes that check.
func TestLeaksAreHeldAtTheirSite(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*node)
		rank lockrank.Rank
		site string
	}{
		{"leaked Lock", (*node).leak, lockrank.File, "(*node).leak"},
		{"discarded Pin release", (*node).dropsRelease, lockrank.Container, "(*node).dropsRelease"},
	} {
		c.run(new(node))
		held := lockrank.Held()
		want := fmt.Sprintf("%v held by goroutine", c.rank)
		site := "taken at slimstore/internal/lockrank_test." + c.site + " ("
		if len(held) != 1 || !strings.Contains(held[0], want) || !strings.Contains(held[0], site) {
			t.Errorf("%s: held %v, want one %q %s", c.name, held, want, site)
		}
		lockrank.Release(c.rank)
	}
}

// TestReleaseWithoutHoldPanics: letting go of a rank the goroutine does
// not hold — an Unlock on the wrong path, a release func called twice —
// panics.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	n := new(node)
	release := n.returnsRelease()
	release()
	if msg, _ := panicOf(release); !strings.Contains(msg, "ContainerLocks released at") || !strings.Contains(msg, "which does not hold it") {
		t.Errorf("second release: panic %q", msg)
	}
	if msg, _ := panicOf(func() { n.maint.Unlock() }); !strings.Contains(msg, "maintMu released at slimstore/internal/lockrank_test.") {
		t.Errorf("Unlock without Lock: panic %q", msg)
	}
}

// TestNegativeControls: the hierarchy walked top to bottom, an obligation
// handed to the caller, and a cross-package helper called with nothing
// below FileLocks held all run clean and leave nothing held.
func TestNegativeControls(t *testing.T) {
	n := new(node)
	for name, fn := range map[string]func(){
		"properOrder":    n.properOrder,
		"returnsRelease": func() { n.returnsRelease()() },
		"orderedCaller":  n.orderedCaller,
	} {
		if msg, _ := panicOf(fn); msg != "" {
			t.Errorf("%s panicked: %s", name, msg)
		}
	}
	if held := lockrank.Held(); len(held) != 0 {
		t.Errorf("still held: %v", held)
	}
}

// TestRanksAreAcrossGoroutines: the order binds one goroutine; another
// goroutine's holding is no inversion.
func TestRanksAreAcrossGoroutines(t *testing.T) {
	n := new(node)
	n.clocks.Lock(id)
	done := make(chan string)
	go func() {
		msg, _ := panicOf(func() { n.files.Lock(file); n.files.Unlock(file) })
		done <- msg
	}()
	if msg := <-done; msg != "" {
		t.Errorf("another goroutine's container stripe blocked a file lock: %s", msg)
	}
	n.clocks.Unlock(id)
}
