//go:build !race

package onestage

const raceEnabled = false
