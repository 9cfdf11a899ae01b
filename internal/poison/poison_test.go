package poison

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func panics(fn func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	fn()
	return false
}

// TestPutTake: Put overwrites the capacity, not the length; a second Put
// panics unless a Take came between, even when the taker wrote nothing.
func TestPutTake(t *testing.T) {
	buf := bytes.Repeat([]byte{1}, 64)
	Put(buf[:10])
	if !Filled(buf) || buf[63] != Byte {
		t.Fatalf("Put left %x", buf)
	}
	if !panics(func() { Put(buf[:0]) }) {
		t.Error("a second Put did not panic")
	}
	Take(buf[:0])
	if panics(func() { Put(buf) }) {
		t.Error("Put after Take panicked")
	}
	if panics(func() { Put(nil) }) {
		t.Error("Put of an empty buffer panicked")
	}
}

// TestOnlyCondition: poisoning is on here, a test binary, where On agrees
// with testing.Testing(), and off in a binary `go build` made; and being a
// test binary is all that decides — the package has no build constraint
// and reads no environment (it imports flag and sync, nothing else). So
// `go run ./benchmark` and cmd/slimstore never pay it, and no switch turns
// it off under `go test`.
func TestOnlyCondition(t *testing.T) {
	if !On() || !testing.Testing() {
		t.Fatalf("in a test binary On() = %v, testing.Testing() = %v", On(), testing.Testing())
	}
	if goTool, err := exec.LookPath("go"); err != nil {
		t.Log("no go tool to build a product binary with:", err)
	} else if out, err := exec.Command(goTool, "run", "./testdata/product", "-v").CombinedOutput(); err != nil || string(out) != "false" {
		t.Errorf("in a product binary On() printed %q (%v), want false", out, err)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("//go:build")) || bytes.Contains(src, []byte("+build")) {
			t.Errorf("%s carries a build constraint", name)
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := imp.Path.Value; p != `"flag"` && p != `"sync"` {
				t.Errorf("%s imports %s: the condition must not reach past the flag set", name, p)
			}
		}
	}
}
