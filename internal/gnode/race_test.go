//go:build race

package gnode

// raceEnabled: the striped crash loops visit every fifth crash point under
// -race, where the GF arithmetic of each reboot runs ~20x slower; the
// uninstrumented run visits every one.
const raceEnabled = true
