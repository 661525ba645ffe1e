package simclock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// timerLead is the fallback waker's spin window: a runtime timer can fire
// up to about a millisecond late on an idle process, because the poller
// waits in whole milliseconds.
const timerLead = 1200 * time.Microsecond

// alarm is the one-shot timer a waker blocks on.
type alarm interface {
	// arm makes the alarm fire once after d (d > 0), replacing any
	// earlier arming. Any goroutine may call it.
	arm(d time.Duration)
	// wait blocks until the alarm fires. Only the waker's loop calls it;
	// an early return is allowed.
	wait()
}

// sleeper is one blocked Sleep: its deadline and the channel the waker
// closes to release it.
type sleeper struct {
	at   int64 // deadline, nanoseconds on monotime
	done chan struct{}
}

// sleepers is a min-heap on deadline (container/heap).
type sleepers []sleeper

func (h sleepers) Len() int           { return len(h) }
func (h sleepers) Less(i, j int) bool { return h[i].at < h[j].at }
func (h sleepers) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sleepers) Push(x any)        { *h = append(*h, x.(sleeper)) }
func (h *sleepers) Pop() any {
	old := *h
	n := len(old) - 1
	s := old[n]
	old[n] = sleeper{}
	*h = old[:n]
	return s
}

// epoch anchors monotime; time.Since reads the monotonic clock.
var epoch = time.Now()

func monotime() int64 { return int64(time.Since(epoch)) }

// waker delivers sleeps. Sleepers queue on a min-heap of deadlines and
// block; the run loop waits on the alarm until lead before the earliest
// deadline, spins the rest, and wakes every due sleeper. Whoever changes
// the earliest deadline (a sleeper pushing a new one, or the loop before
// it waits) re-arms the alarm under mu, so the alarm always targets the
// current earliest deadline; a stale firing only costs the loop one
// extra pass.
type waker struct {
	al   alarm
	lead int64 // ns

	mu   sync.Mutex
	heap sleepers
}

// newWaker starts a waker's run loop, which never exits.
func newWaker(al alarm, lead time.Duration) *waker {
	w := &waker{al: al, lead: int64(lead)}
	go w.run()
	return w
}

// sleep blocks until d has passed.
func (w *waker) sleep(d time.Duration) {
	now := monotime()
	s := sleeper{at: now + int64(d), done: make(chan struct{})}
	w.mu.Lock()
	heap.Push(&w.heap, s)
	if w.heap[0].done == s.done {
		w.armLocked(now)
	}
	w.mu.Unlock()
	<-s.done
}

func (w *waker) run() {
	for {
		w.mu.Lock()
		now := monotime()
		for len(w.heap) > 0 && w.heap[0].at <= now {
			close(heap.Pop(&w.heap).(sleeper).done)
		}
		if len(w.heap) > 0 && w.heap[0].at-w.lead <= now {
			// Inside the lead of the earliest deadline: spin, yielding so
			// the goroutines that share this processor keep running.
			w.mu.Unlock()
			runtime.Gosched()
			continue
		}
		if len(w.heap) > 0 {
			w.armLocked(now)
		}
		w.mu.Unlock()
		w.al.wait()
	}
}

// armLocked arms the alarm for lead before the earliest deadline, given
// the current time now.
func (w *waker) armLocked(now int64) {
	w.al.arm(time.Duration(max(w.heap[0].at-w.lead-now, 1)))
}

// timerAlarm is the portable alarm: a runtime timer.
type timerAlarm struct{ t *time.Timer }

func newTimerAlarm() *timerAlarm {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerAlarm{t: t}
}

func (a *timerAlarm) arm(d time.Duration) { a.t.Reset(d) }

func (a *timerAlarm) wait() { <-a.t.C }
