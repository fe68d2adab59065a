//go:build race

package main

// The race detector's runtime allocates on its own account, so heap
// counts stop repeating exactly.
func init() { raceDetector = true }
