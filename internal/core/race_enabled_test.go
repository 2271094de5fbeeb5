//go:build race

package core_test

// raceEnabled skips the allocation ceiling under the race detector, where
// sync.Pool drops items at random and pooled scratch is reallocated.
const raceEnabled = true
