package oss

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestDiskListMatchesFilter: List walks only the prefix's directory, and
// must still return exactly the keys a filter over every key returns —
// with escaped segments, prefixes that end inside a segment, a prefix that
// names an object, and directories that do not exist.
func TestDiskListMatchesFilter(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"top", "top.tmp", "a/b", "a/bc/d", "a/b.d/e",
		"containers/C0001.data", "containers/C0001.meta", "containers/C0002.data",
		"catalog/f one/v0", "catalog/f one/v1", "catalog/f/v0", "catalog/fé/v0",
		"=odd/k", "=/k", "x//y", "../up", "./dot",
	}
	for _, k := range keys {
		if err := d.Put(k, []byte(k)); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
	}
	sort.Strings(keys)
	prefixes := []string{
		"", "t", "top", "top.", "topp", "a", "a/", "a/b", "a/b/", "a/b.", "a/bc/d", "a/bc/d/", "a/bc/d/e/f",
		"c", "containers/", "containers/C", "containers/C0001", "containers/C0001.data", "containers/C0003",
		"catalog/f", "catalog/f ", "catalog/f one", "catalog/f one/", "catalog/f one/v1", "catalog/f\xc3",
		"=", "=o", "=odd/", "=/", "=2", "x", "x/", "x//", "x//y", "..", "../", ".", "./d",
		"missing", "missing/", "missing/deeper/x",
	}
	for _, p := range prefixes {
		var want []string
		for _, k := range keys {
			if strings.HasPrefix(k, p) {
				want = append(want, k)
			}
		}
		got, err := d.List(p)
		if err != nil {
			t.Errorf("List(%q): %v", p, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("List(%q) = %q, want %q", p, got, want)
		}
	}
}

// TestDiskConcurrentSameKeyPuts: writers racing on one key beside readers
// and listers. Every Get returns one writer's whole value — never a mix,
// a short one or a miss — and no List shows a Put's temporary name.
func TestDiskConcurrentSameKeyPuts(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key, other, size, writers, rounds = "dir/obj", "dir/other", 64 << 10, 4, 50
	value := func(w int) []byte { return bytes.Repeat([]byte{byte('a' + w)}, size+w) }
	for _, k := range []string{key, other} {
		if err := d.Put(k, value(0)); err != nil {
			t.Fatal(err)
		}
	}
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				if err := d.Put(key, value(w)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	check := func() error {
		b, err := d.Get(key)
		if err != nil {
			return err
		}
		if len(b) < size || !bytes.Equal(b, value(len(b)-size)) {
			return fmt.Errorf("get: %d bytes starting %q: no writer's value", len(b), b[:min(len(b), 8)])
		}
		if n, err := d.Head(key); err != nil || n < size || n >= size+writers {
			return fmt.Errorf("head: %d, %v", n, err)
		}
		ks, err := d.List("dir/")
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ks, []string{key, other}) {
			return fmt.Errorf("list: %q", ks)
		}
		return nil
	}
	for r := 0; r < 2; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := check(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()
	if err := check(); err != nil {
		t.Fatal(err)
	}
}
