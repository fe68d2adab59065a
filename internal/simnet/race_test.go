//go:build race

package simnet

func init() { raceDetector = true }
