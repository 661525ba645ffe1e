package simclock

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdLead is the spin window behind a timerfd wait: about the p90
// latency from a timerfd firing to the waker running again.
const timerfdLead = 60 * time.Microsecond

// timerfdAlarm is a CLOCK_MONOTONIC timerfd read through the runtime
// poller, which wakes on readiness instead of a millisecond timeout.
type timerfdAlarm struct {
	fd  uintptr
	f   *os.File
	buf [8]byte // expiration count; read only by wait
}

// newAlarm returns a timerfd alarm, or the runtime-timer fallback when the
// kernel refuses a timerfd, together with the lead that suits it.
func newAlarm() (alarm, time.Duration) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerAlarm(), timerLead
	}
	// A non-blocking descriptor handed to os.NewFile joins the poller.
	return &timerfdAlarm{fd: fd, f: os.NewFile(fd, "simclock-timerfd")}, timerfdLead
}

func (a *timerfdAlarm) arm(d time.Duration) {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		// The descriptor is ours and d is positive: only a bug gets here.
		panic(fmt.Sprintf("simclock: timerfd_settime: %v", errno))
	}
}

func (a *timerfdAlarm) wait() {
	if _, err := a.f.Read(a.buf[:]); err != nil {
		panic(fmt.Sprintf("simclock: timerfd read: %v", err))
	}
}
