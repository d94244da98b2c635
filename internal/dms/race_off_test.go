//go:build !race

package dms

const raceEnabled = false
