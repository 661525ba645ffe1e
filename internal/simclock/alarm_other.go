//go:build !linux

package simclock

import "time"

// newAlarm returns the runtime-timer alarm, the only one outside Linux.
func newAlarm() (alarm, time.Duration) { return newTimerAlarm(), timerLead }
