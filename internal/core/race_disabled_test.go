//go:build !race

package core_test

// raceEnabled skips the allocation ceiling under the race detector; see
// race_enabled_test.go.
const raceEnabled = false
