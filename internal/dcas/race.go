//go:build race

package dcas

// raceEnabled reports a race-detector build: CompareAndSwap then shows the
// detector its DCAS as a release.
const raceEnabled = true
