package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/interp"
)

func TestSamplesForTailRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}, {0.999, 10000}} {
		if got := samplesFor(c.p); got != c.want {
			t.Errorf("samplesFor(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 1000)
	for i := range xs {
		xs[i] = time.Duration(1000-i) * time.Millisecond // reversed: percentile sorts
	}
	if got := percentile(xs, 0.5); got != 500*time.Millisecond {
		t.Errorf("p50 = %v, want 500ms", got)
	}
	if got := percentile(xs, 0.99); got != 990*time.Millisecond {
		t.Errorf("p99 = %v, want 990ms", got)
	}
	// Exactly ten samples lie beyond p99 of 1000: the tail rule's boundary.
	beyond := 0
	for _, x := range xs {
		if x > 990*time.Millisecond {
			beyond++
		}
	}
	if beyond != minTailSamples {
		t.Errorf("%d samples beyond p99, want %d", beyond, minTailSamples)
	}
	if got := percentile(xs, 1); got != 1000*time.Millisecond {
		t.Errorf("p100 = %v, want max", got)
	}
}

func TestPercentileSmallInputs(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	one := []time.Duration{7}
	if got := percentile(one, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
	two := []time.Duration{9, 3}
	if got := percentile(two, 0.5); got != 3 {
		t.Errorf("p50 of {3,9} = %v, want 3 (nearest rank)", got)
	}
}

func TestMedianFloat(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := medianFloat(xs); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if xs[0] != 3 {
		t.Errorf("medianFloat reordered its input")
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	if got := selfTime(10*time.Millisecond, 7*time.Millisecond); got != 3*time.Millisecond {
		t.Errorf("selfTime = %v, want 3ms", got)
	}
	if got := selfTime(5*time.Millisecond, 5*time.Millisecond); got != 0 {
		t.Errorf("equal times: selfTime = %v, want 0", got)
	}
	if got := selfTime(5*time.Millisecond, 6*time.Millisecond); got != 0 {
		t.Errorf("child longer than parent: selfTime = %v, want clamp to 0", got)
	}
	if got := selfTime(0, 0); got != 0 {
		t.Errorf("idle layer: selfTime = %v, want 0", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(0, 0) = %v, want 0", got)
	}
	if got := ratio(6, 4); got != 1.5 {
		t.Errorf("ratio(6, 4) = %v, want 1.5", got)
	}
}

func TestPageFiguresWithNoWork(t *testing.T) {
	// A workload that never reaches a layer (the WAL on the read
	// workloads) reads as zero, and so does a run with no traced page.
	var tot layerTotals
	m := tot.pageFigures()
	if len(m) == 0 {
		t.Fatal("no figures")
	}
	for name, v := range m {
		if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v with no work, want 0", name, v)
		}
	}
}

func TestCounterFiguresWithNoWork(t *testing.T) {
	// The coalescer on the per-query workload, the WAL and the disk on
	// warm reads: zero activity reads as zero, whatever the page count.
	for _, pages := range []int{0, 100} {
		m := counters{}.counterFigures(pages)
		for name, v := range m {
			if v != 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("pages=%d: %s = %v with no work, want 0", pages, name, v)
			}
		}
	}
}

func TestCounterFiguresPerPage(t *testing.T) {
	d := counters{
		batches: 40, batched: 400, syncs: 30, syncedRecs: 60, syncedBytes: 5000,
		inserts: 200, netRequests: 80, queries: 100, rowsRead: 300,
		hits: 30, misses: 70, diskPages: 70, diskReqs: 50, diskQueue: 125,
		sim: 20 * time.Millisecond, retained: 7, retriesShed: 2,
	}
	m := d.counterFigures(10)
	want := map[string]float64{
		"batch.calls_per_page":           4,
		"batch.bindings_per_call":        10,
		"wal.syncs_per_page":             3,
		"wal.records_per_sync":           2,
		"wal.bytes_per_row":              25,
		"wal.retained_records":           7,
		"server.requests_per_page":       8,
		"server.sim_ms_per_page":         2,
		"server.rows_examined_per_query": 3,
		"buffer.hit_ratio":               0.3,
		"disk.pages_read_per_page":       7,
		"disk.avg_queue":                 2.5,
		"net.retries_shed":               2,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestCountersMinusKeepsLevels(t *testing.T) {
	a := counters{syncs: 10, retained: 50}
	b := counters{syncs: 4, retained: 20}
	d := a.minus(b)
	if d.syncs != 6 {
		t.Errorf("syncs delta = %d, want 6", d.syncs)
	}
	if d.retained != 50 {
		t.Errorf("retained = %d, want the later level 50", d.retained)
	}
}

func TestPageFiguresSelfTimes(t *testing.T) {
	var tot layerTotals
	tot[spPage] = spanSum{n: 2, ns: int64(20 * time.Millisecond)}
	tot[spSubmit] = spanSum{n: 200, ns: int64(2 * time.Millisecond)}
	tot[spFetch] = spanSum{n: 200, ns: int64(14 * time.Millisecond)}
	tot[spNetCall] = spanSum{n: 200, ns: int64(30 * time.Millisecond)}
	tot[spFrontBackend] = spanSum{n: 200, ns: int64(18 * time.Millisecond)}
	tot[spShardRead] = spanSum{n: 200, ns: int64(12 * time.Millisecond)}
	m := tot.pageFigures()
	want := map[string]float64{
		"interp.self_ms_per_page":       2, // (20 - 2 - 14) / 2
		"interp.fetch_wait_ms_per_page": 7,
		"exec.submit_us":                10,
		"net.call_ms":                   0.15,
		"net.self_ms_per_page":          6, // (30 - 18) / 2
		"shard.self_ms_per_page":        3, // (18 - 12) / 2
		"shard.fanout":                  1,
		"replica.read_ms":               0.06,
		"replica.write_ms":              0,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestLayerTotalsAddMinus(t *testing.T) {
	var a, b layerTotals
	a[spNetBatch] = spanSum{n: 5, ns: 500, items: 80}
	b[spNetBatch] = spanSum{n: 2, ns: 100, items: 32}
	d := a.minus(b)
	if d[spNetBatch] != (spanSum{n: 3, ns: 400, items: 48}) {
		t.Errorf("minus = %+v", d[spNetBatch])
	}
	d.add(b)
	if d != a {
		t.Errorf("add(minus) did not round-trip")
	}
}

func TestBackendKind(t *testing.T) {
	if backendKind("insert into formsmaster values (?, ?)") != spShardWrite {
		t.Error("insert not classified as a write")
	}
	if backendKind("  INSERT into t values (?)") != spShardWrite {
		t.Error("upper-case insert not classified as a write")
	}
	if backendKind("select nickname, rating from users where uid = ?") != spShardRead {
		t.Error("select not classified as a read")
	}
}

func TestFormsPageNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for pg := 0; pg < 3; pg++ {
		rows := formsPage(rng, pg)[0].(interp.Rows)
		if len(rows) != rangesPerPage {
			t.Fatalf("page %d: %d ranges", pg, len(rows))
		}
		for _, r := range rows {
			lo, hi := r["lo"].(int64), r["hi"].(int64)
			if hi-lo+1 != formsPerRange {
				t.Errorf("page %d: range %d..%d", pg, lo, hi)
			}
			if pageOfForm(lo) != pg || pageOfForm(hi) != pg {
				t.Errorf("page %d: forms %d..%d map to pages %d..%d", pg, lo, hi, pageOfForm(lo), pageOfForm(hi))
			}
		}
	}
}

func TestDigestCanonical(t *testing.T) {
	a := interp.Rows{interp.Row{"nickname": "user7", "rating": int64(3)}}
	b := interp.Rows{interp.Row{"rating": int64(3), "nickname": "user7"}}
	if digest(fnvOffset, a) != digest(fnvOffset, b) {
		t.Error("row digest depends on map order")
	}
	for _, other := range []interp.Value{
		interp.Rows{interp.Row{"nickname": "user7", "rating": int64(4)}},
		interp.Rows{interp.Row{"nickname": "user7", "rating": "3"}},
		interp.Rows{},
		int64(3),
	} {
		if digest(fnvOffset, a) == digest(fnvOffset, other) {
			t.Errorf("digest of %v equals digest of %v", interp.Format(a), interp.Format(other))
		}
	}
}

func TestTapOrderSensitive(t *testing.T) {
	// Two pages fetching the same results in swapped order: the sum a
	// kernel returns agrees, the tap's digest does not.
	one, two := interp.Rows{interp.Row{"rating": int64(1)}}, interp.Rows{interp.Row{"rating": int64(2)}}
	tp := &tap{}
	tp.got = append(tp.got, doneHandle{v: one}, doneHandle{v: two})
	d1 := tp.take()
	if len(tp.got) != 0 {
		t.Fatal("take did not empty the tap")
	}
	tp.got = append(tp.got, doneHandle{v: two}, doneHandle{v: one})
	if d1 == tp.take() {
		t.Error("swapped results give the same digest")
	}
}
