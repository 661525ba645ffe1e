// Command perfbench is the repository's end-to-end benchmark: it runs a
// transformed application program, one page (one run of the app's kernel)
// after another, on the full stack — interp → exec/batch → net.Client →
// loopback TCP → net.Server → shard.Router → replica.Group → wal.FileStore
// → server/sqlmini — and reports page latency, throughput, CPU and set-up
// cost, checked against the original program on a reference server.
// WORKLOADS.md describes the workloads; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload read-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result line carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries per-layer metrics, timed at the
// layers' public entry points from outside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart anchors the first set-up's clock at process start.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports, end-to-end and per-layer.
var units = map[string]string{
	"setup_s":         "s",
	"setup_heap_mb":   "MB",
	"page_p50_ms":     "ms",
	"page_p99_ms":     "ms",
	"pages_per_s":     "1/s",
	"cpu_ms_per_page": "ms",

	"core.transform_ms":              "ms",
	"interp.self_ms_per_page":        "ms",
	"interp.fetch_wait_ms_per_page":  "ms",
	"exec.submit_us":                 "us",
	"batch.calls_per_page":           "count",
	"batch.bindings_per_call":        "count",
	"net.call_ms":                    "ms",
	"net.self_ms_per_page":           "ms",
	"net.retries_shed":               "count",
	"shard.self_ms_per_page":         "ms",
	"shard.fanout":                   "count",
	"replica.read_ms":                "ms",
	"replica.write_ms":               "ms",
	"wal.syncs_per_page":             "count",
	"wal.records_per_sync":           "count",
	"wal.sync_ms":                    "ms",
	"wal.append_us":                  "us",
	"wal.bytes_per_row":              "B",
	"wal.retained_records":           "count",
	"server.requests_per_page":       "count",
	"server.sim_ms_per_page":         "ms",
	"server.rows_examined_per_query": "count",
	"buffer.hit_ratio":               "ratio",
	"disk.pages_read_per_page":       "count",
	"disk.avg_queue":                 "count",
	"trace.overhead_pct":             "%",
}

// printedOnly is a figure printed for people but left out of the result
// line. page_p99_ms on the Scale-0 workloads follows the host's fsync and
// scheduler tails: across ten-run sets on the 2-vCPU development VM its
// spread (quartile distance over median) reached 0.18-0.33, wider than the
// largest regression bound a result-line metric may carry (0.25).
const printedOnly = "page_p99_ms"

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: read-cold, read-warm-async, write-durable or write-sim")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the page inputs")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for WAL files and the trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(o.workload)
	if w == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (read-cold, read-warm-async, write-durable, write-sim), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	o.trace = trace == 1
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := bench(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d pages disagree with the reference program\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// bench sets up setupRuns times, keeps the last stack, measures one timed
// window on it and checks every page it ran.
func bench(w *workload, o options, out io.Writer) (*result, error) {
	var setups, transforms []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		s, err := buildStack(w, o.seed, o.trace, o.outDir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		transforms = append(transforms, ms(s.transform))
		if i < setupRuns-1 {
			s.close()
			runtime.GC()
			continue
		}
		st = s
	}
	defer st.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / (1 << 20)

	win := st.measure(time.Duration(o.seconds) * time.Second)

	bad, err := st.checkResults()
	if err != nil {
		return nil, err
	}
	if st.app.MutatesData {
		st.quiesce()
		st.checkTables(bad)
		st.closeCluster()
		if err := st.checkDurable(bad); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: len(bad) == 0, Attempted: win.n, Failed: min(len(bad), win.n), Metrics: map[string]metric{}}
	fmt.Fprintf(out, "perfbench %s seed=%d trace=%t: %d timed pages in %.2f s after %d warm-up pages; %d set-ups; %d GCs in the window\n",
		w.name, o.seed, o.trace, win.n, win.elapsed.Seconds(), w.warmup, setupRuns, win.gcs)

	timed := st.pages[win.first:]
	// Timings are medians over equal sub-windows, so a burst of host noise
	// in one of them moves the figure little.
	var p50s, rates, cpus []float64
	for _, sg := range win.segs {
		var lat []time.Duration
		for _, p := range st.pages[sg.first : sg.first+sg.n] {
			lat = append(lat, p.lat)
		}
		p50s = append(p50s, ms(percentile(lat, 0.50)))
		rates = append(rates, ratio(float64(sg.n), sg.dur.Seconds()))
		cpus = append(cpus, ratio(ms(sg.cpu), float64(sg.n)))
	}
	fmt.Fprintf(out, "  sub-window p50 ms:%s\n  sub-window pages/s:%s\n  sub-window cpu ms/page:%s\n", fmtList(p50s), fmtList(rates), fmtList(cpus))
	e2e := map[string]float64{
		"setup_s":         medianFloat(setups),
		"setup_heap_mb":   heapMB,
		"page_p50_ms":     medianFloat(p50s),
		"pages_per_s":     medianFloat(rates),
		"cpu_ms_per_page": medianFloat(cpus),
	}
	var lats, tracedLats, plainLats []time.Duration
	var spans layerTotals
	for _, p := range timed {
		lats = append(lats, p.lat)
		if p.traced {
			tracedLats = append(tracedLats, p.lat)
			spans.add(p.spans)
		} else {
			plainLats = append(plainLats, p.lat)
		}
	}
	e2e["page_p99_ms"] = ms(percentile(lats, 0.99))
	if len(lats) < samplesFor(0.99) {
		fmt.Fprintf(out, "  note: page_p99_ms from %d samples, below the %d the tail rule needs\n", len(lats), samplesFor(0.99))
	}

	layer := spans.pageFigures()
	for k, v := range win.delta.counterFigures(win.n) {
		layer[k] = v
	}
	layer["core.transform_ms"] = medianFloat(transforms)
	plain := ms(percentile(plainLats, 0.50))
	layer["trace.overhead_pct"] = ratio(100*(ms(percentile(tracedLats, 0.50))-plain), plain)

	report := e2e
	if o.trace {
		report = layer
		if err := writeTrace(o, w, timed); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "  %-32s %.6g ratio (%d of %d pages failed; p50/p99 from %d samples) (printed only)\n",
		"error_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted, len(lats))
	for _, name := range sortedKeys(report) {
		note := ""
		if name == printedOnly {
			note = " (printed only)"
		} else {
			res.Metrics[name] = metric{Value: report[name], Unit: units[name]}
		}
		fmt.Fprintf(out, "  %-32s %.6g %s%s\n", name, report[name], units[name], note)
	}
	return res, nil
}

// segments is the number of equal sub-windows the timed window is cut
// into for the median timings.
const segments = 10

// window is one timed measurement.
type window struct {
	first, n int // index of the first timed page in stack.pages, and count
	elapsed  time.Duration
	segs     []segment
	gcs      uint32 // GC cycles completed during the window
	delta    counters
}

// segment is one sub-window: pages [first, first+n) of stack.pages.
type segment struct {
	first, n int
	dur      time.Duration
	cpu      time.Duration // process user+sys CPU
}

// measure runs pages back to back (closed loop, one driver) until d has
// passed and the p99 tail rule has its samples, or 3d has passed, closing
// a segment at each d/segments boundary (the last one runs to the end). In
// a traced run every other page is traced, so trace.overhead_pct compares
// traced and untraced pages of one window on one stack.
func (st *stack) measure(d time.Duration) window {
	need := samplesFor(0.99)
	w := window{first: len(st.pages)}
	var prev layerTotals
	if st.tr != nil {
		prev = st.tr.snapshot()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	gc0 := mem.NumGC
	c0 := readCounters(st)
	start := time.Now()
	seg := segment{first: w.first}
	segStart, segCPU := time.Duration(0), cpuTime()
	closeSeg := func(el time.Duration) {
		cpu := cpuTime()
		seg.n, seg.dur, seg.cpu = len(st.pages)-seg.first, el-segStart, cpu-segCPU
		w.segs = append(w.segs, seg)
		seg, segStart, segCPU = segment{first: len(st.pages)}, el, cpu
	}
	for {
		el, n := time.Since(start), len(st.pages)-w.first
		if len(w.segs) < segments-1 && el >= time.Duration(len(w.segs)+1)*d/segments {
			closeSeg(el)
		}
		if (el >= d && n >= need) || el >= 3*d {
			closeSeg(el)
			break
		}
		traced := st.tr != nil && n%2 == 0
		if st.tr != nil {
			st.tr.on.Store(traced)
		}
		p := st.runPage()
		if st.tr != nil {
			snap := st.tr.snapshot()
			if traced {
				p.traced = true
				p.spans = snap.minus(prev)
				p.spans[spPage] = spanSum{n: 1, ns: int64(p.lat)}
			}
			prev = snap
		}
	}
	w.elapsed = time.Since(start)
	if st.tr != nil {
		st.tr.on.Store(false)
	}
	w.delta = readCounters(st).minus(c0)
	w.n = len(st.pages) - w.first
	runtime.ReadMemStats(&mem)
	w.gcs = mem.NumGC - gc0
	return w
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeTrace writes the traced pages' per-layer spans, one JSON object per
// page, to <out>/trace/<workload>-seed<seed>.jsonl.
func writeTrace(o options, w *workload, timed []page) error {
	dir := filepath.Join(o.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, p := range timed {
		if !p.traced {
			continue
		}
		spans := map[string][3]int64{}
		for k, s := range p.spans {
			if s.n > 0 {
				spans[spanNames[k]] = [3]int64{s.n, s.ns, s.items}
			}
		}
		if err := enc.Encode(map[string]any{"page": i, "lat_ns": int64(p.lat), "spans": spans}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtList(xs []float64) string {
	var s string
	for _, x := range xs {
		s += fmt.Sprintf(" %.4g", x)
	}
	return s
}
