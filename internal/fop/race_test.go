//go:build race

package fop

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// by design, so allocation counts of pooled code are not meaningful there.
const raceEnabled = true
