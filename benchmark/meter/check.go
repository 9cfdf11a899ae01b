package meter

import (
	"bytes"
	"fmt"
)

// CompareWriter is a restore sink that checks the stream against the bytes
// the harness generated instead of keeping it: a wrong byte, an overlong
// and (at Finish) a short output are all errors. The comparison is a
// memcmp per Write, so timed restores pay no hashing or allocation for
// the check.
type CompareWriter struct {
	want []byte
	off  int
	err  error
}

// NewCompareWriter expects exactly want.
func NewCompareWriter(want []byte) *CompareWriter { return &CompareWriter{want: want} }

// Write implements io.Writer, failing at the first byte that differs from
// the expected stream or runs past its end.
func (w *CompareWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if len(p) > len(w.want)-w.off {
		w.err = fmt.Errorf("meter: output longer than the expected %d bytes", len(w.want))
		return 0, w.err
	}
	if !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		i := 0
		for p[i] == w.want[w.off+i] {
			i++
		}
		w.err = fmt.Errorf("meter: output differs from the expected stream at byte %d", w.off+i)
		return i, w.err
	}
	w.off += len(p)
	return len(p), nil
}

// Finish reports the first mismatch, or a short output.
func (w *CompareWriter) Finish() error {
	if w.err == nil && w.off != len(w.want) {
		w.err = fmt.Errorf("meter: output ended at byte %d of %d", w.off, len(w.want))
	}
	return w.err
}
