package core

import (
	"testing"

	"slimstore/internal/container"
)

// TestPinMoreNeverWaits: extending a pin read-locks only the stripes it
// does not hold, and when a writer holds one of the others it locks
// nothing and says so at once; the writer's stripe free, it succeeds, and
// its release lets a writer of that stripe in.
func TestPinMoreNeverWaits(t *testing.T) {
	var l ContainerLocks
	held := []container.ID{1}
	release := l.Pin(held)
	defer release()
	sameStripe := container.ID(1 + containerLockShards)

	l.shard(3).Lock() // a writer's section, unranked: the test holds the pin too
	if more, ok := l.PinMore(held, []container.ID{sameStripe, 2, 3}); ok {
		more()
		t.Fatal("PinMore succeeded over a stripe a writer holds")
	}
	if !l.shard(2).TryLock() { // the failed extension left stripe 2 unlocked
		t.Fatal("a failed PinMore kept a stripe read-locked")
	}
	l.shard(2).Unlock()
	l.shard(3).Unlock()

	more, ok := l.PinMore(held, []container.ID{sameStripe, 2, 3})
	if !ok {
		t.Fatal("PinMore failed with no writer about")
	}
	if l.shard(3).TryLock() {
		t.Fatal("an extended pin does not hold stripe 3")
	}
	more()
	if !l.shard(3).TryLock() {
		t.Fatal("the extension's release left stripe 3 read-locked")
	}
	l.shard(3).Unlock()
}
