// Package leakcheck is the run-time check on goroutine lifetimes
// (DESIGN.md §9): once the tests of a package have run, nothing may still
// be running the module's code. It observes whether every goroutine
// reached its stop or join edge, on every test the package has, where a
// static check can only say such an edge exists somewhere.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module prefixes the function names of this module's code in a stack
// dump: "slimstore/internal/…" and, for the root package, "slimstore.".
const module = "slimstore"

// limit is how long a goroutine may take to end once its work is done. A
// variable only so that the package's own test need not wait it out.
var limit = 2 * time.Second

// Main runs the tests and then fails the binary, printing the stacks, if
// goroutines are still running module code after the limit.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if left := settle(); len(left) > 0 {
			fmt.Fprintln(os.Stderr, report(left))
			code = 1
		}
	}
	os.Exit(code)
}

// Settled fails tb if, after the limit, a goroutine other than the
// caller's and those running tests is still running module code.
func Settled(tb testing.TB) {
	tb.Helper()
	if left := settle(); len(left) > 0 {
		tb.Error(report(left))
	}
}

func report(left []string) string {
	return fmt.Sprintf("leakcheck: %d goroutine(s) still running %s code after %v:\n\n%s",
		len(left), module, limit, strings.Join(left, "\n\n"))
}

// settle polls until no goroutine lingers or the limit has passed, and
// returns the stacks of those that do.
func settle() []string {
	deadline := time.Now().Add(limit)
	for wait := time.Millisecond; ; wait *= 2 {
		left := lingering()
		if len(left) == 0 || !time.Now().Before(deadline) {
			return left
		}
		time.Sleep(min(wait, 50*time.Millisecond))
	}
}

// lingering returns the stack of every goroutine with a frame of, or
// created by, module code — but for the caller's (the first in the dump)
// and the test runner's own, which have a frame of package testing (the
// main goroutine inside m.Run, a test waiting in t.Run for its subtests,
// tests running beside the caller).
func lingering() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n")[1:] {
		if inModule(g) && !strings.Contains(g, "\ntesting.") {
			left = append(left, g)
		}
	}
	return left
}

func inModule(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		fn := strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(fn, module+"/") || strings.HasPrefix(fn, module+".") {
			return true
		}
	}
	return false
}
