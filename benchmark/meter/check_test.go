package meter

import (
	"bytes"
	"io"
	"testing"
)

func TestCompareWriter(t *testing.T) {
	want := bytes.Repeat([]byte("slimstore"), 1000)
	write := func(w io.Writer, p []byte) error {
		// In pieces, the way a restore emits chunks.
		for len(p) > 0 {
			n := min(len(p), 1234)
			if _, err := w.Write(p[:n]); err != nil {
				return err
			}
			p = p[n:]
		}
		return nil
	}

	w := NewCompareWriter(want)
	if err := write(w, want); err != nil || w.Finish() != nil {
		t.Fatalf("identical stream rejected: %v / %v", err, w.Finish())
	}

	flipped := append([]byte(nil), want...)
	flipped[4321] ^= 1
	w = NewCompareWriter(want)
	if err := write(w, flipped); err == nil {
		t.Fatal("flipped byte not caught by Write")
	}
	if w.Finish() == nil {
		t.Fatal("flipped byte forgotten by Finish")
	}

	w = NewCompareWriter(want)
	if err := write(w, want[:len(want)-1]); err != nil {
		t.Fatalf("prefix rejected early: %v", err)
	}
	if w.Finish() == nil {
		t.Fatal("short output not caught")
	}

	w = NewCompareWriter(want)
	if err := write(w, append(append([]byte(nil), want...), 'x')); err == nil || w.Finish() == nil {
		t.Fatal("long output not caught")
	}
}
