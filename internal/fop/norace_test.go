//go:build !race

package fop

const raceEnabled = false
