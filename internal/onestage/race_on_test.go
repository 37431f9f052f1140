//go:build race

package onestage

// raceEnabled reports whether the race detector is active; its allocation
// instrumentation invalidates alloc-count assertions.
const raceEnabled = true
