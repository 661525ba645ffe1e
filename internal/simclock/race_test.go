//go:build race

package simclock

// raceEnabled reports a race-instrumented build, whose scheduler path is
// several times slower: waking 32 goroutines on one processor then takes
// longer than the overshoot bounds allow, whatever the waker does.
const raceEnabled = true
