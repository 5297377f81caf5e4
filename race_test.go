//go:build race

package repro_test

// raceEnabled reports a -race build. The race runtime makes sync.Pool drop
// items on purpose, so allocation gates that count pooled reuse skip there.
const raceEnabled = true
