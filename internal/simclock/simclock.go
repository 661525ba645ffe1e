// Package simclock provides the scaled, precise sleeping used by the
// simulated database substrate. All simulated latencies are expressed in
// microsecond-scale base durations and multiplied by a configurable Scale,
// so experiments can trade wall-clock time for resolution without changing
// the modelled ratios.
//
// Every sleep in the process, from every Clock and from Sleep itself, is
// delivered by one process-wide waker. A sleeper pushes its deadline onto
// a shared min-heap and blocks on its own channel; the waker waits for the
// earliest deadline minus lead, spins the last lead with runtime.Gosched,
// and then wakes every due sleeper. Only that one goroutine ever spins, so
// concurrent sleepers cost no CPU of their own, and no sleeper ever
// returns before its deadline.
//
// On Linux the waker blocks on a timerfd registered with the runtime
// poller: the poller wakes on fd readiness, so the wait is not rounded up
// to the whole milliseconds a runtime timer waits in. lead (60µs, about
// the p90 latency of a timerfd wake on a 2-vCPU VM) covers the wake-up
// latency and is spun. A sleeper that becomes the new earliest deadline
// re-arms the timerfd. Elsewhere, or when the kernel refuses a timerfd,
// the same loop waits on a time.Timer with a lead equal to the runtime
// timer floor (1.2ms).
//
// The waker is the one exception to the rule that a goroutine belongs to
// a value whose stop method ends it: it serves every Clock at once, so no
// Clock owns it. It starts on the first sleep and runs for the life of the
// process. While no sleep is pending it is parked in the poller (or on its
// timer's channel), so it costs nothing when idle. Scale 0 never reaches
// it.
package simclock

import (
	"sync"
	"sync/atomic"
	"time"
)

// Clock scales and executes simulated delays. A zero Scale disables sleeping
// entirely (useful in logic tests), while still accounting the virtual time.
type Clock struct {
	scale atomic.Int64 // scale * 1e6
	spent atomic.Int64 // accumulated virtual nanoseconds (unscaled)
}

// New returns a clock with the given scale factor (1.0 = real microseconds).
func New(scale float64) *Clock {
	c := &Clock{}
	c.SetScale(scale)
	return c
}

// SetScale changes the scale factor.
func (c *Clock) SetScale(s float64) {
	c.scale.Store(int64(s * 1e6))
}

// Scale returns the current scale factor.
func (c *Clock) Scale() float64 {
	return float64(c.scale.Load()) / 1e6
}

// Sleep pauses for d scaled by the clock's factor and accounts the unscaled
// virtual time.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.spent.Add(int64(d))
	s := c.scale.Load()
	if s == 0 {
		return
	}
	Sleep(time.Duration(int64(d) * s / 1e6))
}

// VirtualSpent reports the total unscaled virtual time slept so far, for
// diagnostics.
func (c *Clock) VirtualSpent() time.Duration {
	return time.Duration(c.spent.Load())
}

// processWaker is the waker every sleep in the process goes through,
// started on first use.
var processWaker = sync.OnceValue(func() *waker { return newWaker(newAlarm()) })

// Sleep pauses for the wall-clock duration d, unscaled, and returns no
// sooner than d after it was called. Unlike time.Sleep it is not rounded
// up to the runtime timer's millisecond floor, so sub-millisecond delays
// (injected link and fsync stalls as well as Clock sleeps) arrive as
// asked.
func Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	processWaker().sleep(d)
}
