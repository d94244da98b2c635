//go:build race

package dms

const raceEnabled = true
