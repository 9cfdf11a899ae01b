//go:build !race

package lnode

// Sizing for TestBackupStreamResidentMemory: a 192 MiB unique stream must
// fit the window (the head's 8 MiB buffer + pack budget + accumulated
// recipe), far below the input size.
const (
	streamTestBytes = 192 << 20
	streamHeapBound = 96 << 20

	raceEnabled = false
)
