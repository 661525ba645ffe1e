package simclock

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestZeroScaleNoSleep(t *testing.T) {
	c := New(0)
	start := time.Now()
	c.Sleep(10 * time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("zero scale must not sleep")
	}
	if c.VirtualSpent() != 10*time.Second {
		t.Fatalf("virtual accounting: %v", c.VirtualSpent())
	}
}

func TestScaledSleep(t *testing.T) {
	c := New(0.1)
	start := time.Now()
	c.Sleep(100 * time.Millisecond) // 10ms wall
	el := time.Since(start)
	if el < 8*time.Millisecond || el > 80*time.Millisecond {
		t.Fatalf("scaled sleep off: %v", el)
	}
}

func TestSetScale(t *testing.T) {
	c := New(1)
	c.SetScale(0.5)
	if c.Scale() != 0.5 {
		t.Fatalf("scale: %v", c.Scale())
	}
}

func TestPreciseShortSleep(t *testing.T) {
	c := New(1)
	start := time.Now()
	for i := 0; i < 20; i++ {
		c.Sleep(50 * time.Microsecond)
	}
	el := time.Since(start)
	if el < 900*time.Microsecond {
		t.Fatalf("short sleeps too fast: %v", el)
	}
	if el > 20*time.Millisecond {
		t.Fatalf("short sleeps too slow (timer floor leaking): %v", el)
	}
}

func TestNegativeSleepNoop(t *testing.T) {
	c := New(1)
	c.Sleep(-time.Second)
	if c.VirtualSpent() != 0 {
		t.Fatal("negative sleep must be ignored")
	}
}

// overshoots runs rounds rounds of n concurrent sleep(d) calls and returns
// each call's overshoot: its elapsed time minus d.
func overshoots(sleep func(time.Duration), n, rounds int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n*rounds)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(slot *time.Duration) {
				defer wg.Done()
				start := time.Now()
				sleep(d)
				*slot = time.Since(start) - d
			}(&out[r*n+i])
		}
		wg.Wait()
	}
	return out
}

// percentile returns the p-quantile (0..1) of xs, sorting xs in place.
func percentile(xs []time.Duration, p float64) time.Duration {
	slices.Sort(xs)
	return xs[int(p*float64(len(xs)-1))]
}

// The waker delivers a sleep within 150µs of its duration at the median,
// alone and with 32 concurrent sleepers — a runtime timer alone overshoots
// a sub-millisecond sleep by about a millisecond.
func TestSleepAccuracy(t *testing.T) {
	for _, n := range []int{1, 32} {
		for _, d := range []time.Duration{70 * time.Microsecond, 200 * time.Microsecond,
			500 * time.Microsecond, 1200 * time.Microsecond} {
			over := overshoots(Sleep, n, 640/n, d)
			if p50 := percentile(over, 0.5); p50 > 150*time.Microsecond && !raceEnabled {
				t.Errorf("%d sleepers of %v: median overshoot %v, want ≤ 150µs", n, d, p50)
			}
			if over[0] < 0 { // sorted by percentile
				t.Errorf("%d sleepers of %v: a sleep returned %v early", n, d, -over[0])
			}
		}
	}
}

// No Clock.Sleep returns before its scaled duration, whatever the mix of
// durations and concurrent scale changes. The scale flips between 1 and 2,
// so every sleep lasts at least its unscaled duration.
func TestSleepNeverEarly(t *testing.T) {
	c := New(1)
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for s := 1.0; ; s = 3 - s {
			select {
			case <-stop:
				return
			default:
			}
			c.SetScale(s)
			Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := time.Duration(1+(g*7+i*13)%40) * 25 * time.Microsecond // 25µs..1ms
				start := time.Now()
				c.Sleep(d)
				if el := time.Since(start); el < d {
					t.Errorf("Sleep(%v) returned after %v", d, el)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipped
}

// The runtime-timer fallback (the only waker outside Linux) is driven here
// directly, so it is covered on every platform: it never returns early and
// its final spin hides the timer floor.
func TestTimerFallbackWaker(t *testing.T) {
	w := newWaker(newTimerAlarm(), timerLead)
	for _, n := range []int{1, 8} {
		for _, d := range []time.Duration{70 * time.Microsecond, 500 * time.Microsecond, 3 * time.Millisecond} {
			over := overshoots(w.sleep, n, 40/n, d)
			if p50 := percentile(over, 0.5); p50 > 150*time.Microsecond && !raceEnabled {
				t.Errorf("%d sleepers of %v: median overshoot %v, want ≤ 150µs", n, d, p50)
			}
			if over[0] < 0 { // sorted by percentile
				t.Errorf("%d sleepers of %v: a sleep returned %v early", n, d, -over[0])
			}
		}
	}
}

// BenchmarkSleep is the clock layer's own cost: how late a sleep returns
// (overshoot p50/p99) and how much process CPU each sleep burns, for one
// and 32 concurrent sleepers.
func BenchmarkSleep(b *testing.B) {
	for _, n := range []int{1, 32} {
		for _, d := range []time.Duration{70 * time.Microsecond, 500 * time.Microsecond} {
			b.Run(fmt.Sprintf("sleepers=%d/d=%v", n, d), func(b *testing.B) {
				cpu0 := processCPU()
				b.ResetTimer()
				over := overshoots(Sleep, n, b.N, d)
				b.StopTimer()
				cpu := processCPU() - cpu0
				b.ReportMetric(float64(percentile(over, 0.5))/1e3, "overshoot-p50-us")
				b.ReportMetric(float64(percentile(over, 0.99))/1e3, "overshoot-p99-us")
				if cpu > 0 {
					b.ReportMetric(float64(cpu)/float64(len(over)), "cpu-ns/sleep")
				}
			})
		}
	}
}
