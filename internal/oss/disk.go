package oss

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// Disk is a Store backed by a local directory. Object keys map to files;
// key path segments are percent-free hex-escaped where needed so arbitrary
// keys are safe on any filesystem. It holds no lock: an object changes
// only by a rename over it or a remove, both atomic, so a reader sees one
// writer's whole value or none.
type Disk struct {
	root string
}

// tmpPrefix starts the name of a Put in progress. '~' is outside
// escapeSeg's safe set, so no object's file name begins with it.
const tmpPrefix = "~put-"

// NewDisk returns a store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("oss: create root: %w", err)
	}
	return &Disk{root: filepath.Clean(dir)}, nil
}

// escapeSeg makes one key segment filesystem-safe.
func escapeSeg(seg string) string {
	safe := true
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' {
			continue
		}
		safe = false
		break
	}
	if safe && seg != "" && seg != "." && seg != ".." && !strings.HasPrefix(seg, "=") {
		return seg
	}
	return "=" + hex.EncodeToString([]byte(seg))
}

func unescapeSeg(seg string) string {
	if !strings.HasPrefix(seg, "=") {
		return seg
	}
	b, err := hex.DecodeString(seg[1:])
	if err != nil {
		return seg
	}
	return string(b)
}

func (s *Disk) path(key string) string {
	segs := strings.Split(key, "/")
	for i, seg := range segs {
		segs[i] = escapeSeg(seg)
	}
	return filepath.Join(append([]string{s.root}, segs...)...)
}

// Put implements Store. The value is written to a file of its own in the
// target directory and renamed into place: the rename is the atomic step,
// and concurrent writers, of one key or of many, share nothing.
func (s *Disk) Put(key string, data []byte) error {
	p := s.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	f, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), p)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *Disk) Get(key string) ([]byte, error) {
	b, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("oss: get %s: %w", key, err)
	}
	return b, nil
}

// GetRange implements Store.
func (s *Disk) GetRange(key string, off, n int64) ([]byte, error) {
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("oss: get range %s: %w", key, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("oss: get range %s: %w", key, err)
	}
	end, err := RangeEnd(key, off, n, st.Size())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, end-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("oss: get range %s: %w", key, err)
	}
	return buf, nil
}

// Head implements Store.
func (s *Disk) Head(key string) (int64, error) {
	st, err := os.Stat(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return 0, fmt.Errorf("oss: head %s: %w", key, err)
	}
	return st.Size(), nil
}

// Delete implements Store.
func (s *Disk) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("oss: delete %s: %w", key, err)
	}
	return nil
}

// List implements Store. Only the directory the prefix's complete
// segments name is walked, and within it only the entries its last,
// partial segment matches: the cost follows the objects under the prefix,
// not the repository.
func (s *Disk) List(prefix string) ([]string, error) {
	cut := strings.LastIndexByte(prefix, '/') + 1
	dir, partial := s.root, prefix[cut:]
	if cut > 0 {
		dir = s.path(prefix[:cut-1])
	}
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if p == dir && (errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)) {
				return nil // no such directory: nothing was ever put under this prefix
			}
			return err
		}
		if p != dir && filepath.Dir(p) == dir && !strings.HasPrefix(unescapeSeg(d.Name()), partial) {
			if d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), tmpPrefix) {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		segs := strings.Split(filepath.ToSlash(rel), "/")
		for i, seg := range segs {
			segs[i] = unescapeSeg(seg)
		}
		if key := strings.Join(segs, "/"); strings.HasPrefix(key, prefix) {
			out = append(out, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oss: list %q: %w", prefix, err)
	}
	sort.Strings(out)
	return out, nil
}
