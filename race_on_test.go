//go:build race

package icbe

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random and allocation bounds do not hold.
const raceEnabled = true
