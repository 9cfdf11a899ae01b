// Package clean is the all-negative fixture: correct lock ordering with
// defers and release closures, checked storage errors, forwarded
// contexts and sorted map iteration. slimlint must exit 0 here.
package clean

import (
	"context"
	"sort"
	"sync"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
)

type system struct {
	maintMu sync.Mutex
	mu      sync.Mutex
	files   *core.FileLocks
	clocks  *core.ContainerLocks
}

func (s *system) maintenance(id container.ID, ids []container.ID, file string) {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.files.Lock(file)
	defer s.files.Unlock(file)
	release := s.clocks.Pin(ids)
	defer release()
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *system) store(ctx context.Context, st oss.Store, keys map[string]bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	for _, k := range ordered {
		if err := st.Put(k, nil); err != nil {
			return err
		}
	}
	return nil
}
