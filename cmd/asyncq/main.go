// Command asyncq is the transformation tool: it parses a mini-language
// program and rewrites it for asynchronous query submission, printing the
// transformed source, the data dependence graph, or the applicability
// analysis.
//
// Usage:
//
//	asyncq [-analyze] [-ddg] [-flat] [-run] [-threads N] [-batch N] [-stats] [-slowlog 5ms] file.mq
//	asyncq -serve [-addr host:port] [-rows N] [-inflight N] [-replicas N]
//	       [-durability off|group|strict] [-scale F] [-stats]
//
// With no flags the transformed program is printed (readable form, §V).
//
// With -run the original and the transformed program both execute against
// a deterministic test service (internal/testsvc) — the original blocking,
// the transformed through a pool of -threads workers — and the results are
// compared: the paper's own correctness check. With -batch N the
// transformed program's submissions are coalesced into batches of up to N
// requests (0 = batching off) and the batch statistics are reported. With
// -stats the run's observability registry — request/queue/batch-wait span
// histograms and executor counters — is dumped to stderr. With -slowlog
// every request slower than the threshold has its span tree rendered to
// stderr as it completes.
//
// With -serve the simulated database (a replica group over the simulated
// server) is served over the wire protocol (internal/net) until SIGINT or
// SIGTERM; -replicas and -durability configure that group, and -stats dumps
// its registry on shutdown. The sharded, replicated, durable and elastic
// cluster is exercised end to end by cmd/experiments and cmd/loadgen.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minilang"
	"repro/internal/obs"
	"repro/internal/testsvc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: it parses args, writes the program output to
// stdout and reports to stderr, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("asyncq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyze := fs.Bool("analyze", false, "print the applicability analysis instead of code")
	ddg := fs.Bool("ddg", false, "print the DDG of each loop in Graphviz dot form")
	flat := fs.Bool("flat", false, "print guarded-statement form (skip the §V regrouping)")
	doRun := fs.Bool("run", false, "run original and transformed against a deterministic service and compare")
	threads := fs.Int("threads", 8, "worker threads for -run")
	batchSize := fs.Int("batch", 0, "coalesce submissions into batches of up to N requests for -run (0 = off)")
	stats := fs.Bool("stats", false, "dump the unified metrics registry to stderr after -run or on -serve shutdown")
	slowlog := fs.Duration("slowlog", 0, "render -run requests slower than this wall-clock threshold as span trees on stderr (0 = off)")
	doServe := fs.Bool("serve", false, "serve the simulated database over the wire protocol (internal/net) instead of transforming a program")
	addr := fs.String("addr", "127.0.0.1:7474", "-serve listen address")
	rows := fs.Int("rows", 10000, "-serve: rows preloaded into the load table")
	inflight := fs.Int("inflight", 64, "-serve: admission budget (max concurrently executing request units; 0 = unlimited)")
	replicas := fs.Int("replicas", 1, "-serve: read replicas in the served replica group")
	durability := fs.String("durability", "", "-serve: the replica group's WAL commit mode (off|group|strict; empty = group)")
	scale := fs.Float64("scale", 0.02, "-serve: simulated-time scale factor for the backing server")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *doServe {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		s, err := serve(serveOptions{
			addr: *addr, rows: *rows, inflight: *inflight,
			replicas: *replicas, durability: *durability,
			scale: *scale,
		}, stdout)
		if err != nil {
			return fail(stderr, err)
		}
		<-sig
		if err := s.shutdown(stderr, *stats); err != nil {
			return fail(stderr, err)
		}
		return 0
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: asyncq [flags] file.mq")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	proc, err := minilang.Parse(string(src))
	if err != nil {
		return fail(stderr, err)
	}

	if *ddg {
		printDDGs(proc, stdout, stderr)
		return 0
	}

	opts := core.Options{Readable: !*flat, SplitNested: true}
	trans, rep, err := core.Transform(proc, opts)
	if err != nil {
		return fail(stderr, err)
	}

	if *analyze {
		fmt.Fprintf(stdout, "procedure %s: %d opportunity site(s), %d transformed\n",
			rep.Proc, rep.Opportunities(), rep.TransformedCount())
		for i, s := range rep.Sites {
			status := "transformed"
			if !s.Transformed() {
				status = "NOT transformed"
			}
			fmt.Fprintf(stdout, "  site %d: %s — %s (queries: %d, converted: %d, reorder: %v, ruleB: %v)\n",
				i+1, s.Loop, status, s.Queries, s.Converted, s.UsedReorder, s.UsedFlatten)
			for _, r := range s.Reasons {
				fmt.Fprintf(stdout, "    reason: %s\n", r)
			}
		}
		return 0
	}

	fmt.Fprint(stdout, ir.Print(trans))
	if !*doRun {
		return 0
	}

	reg := ir.NewRegistry()
	in1 := interp.New(reg, testsvc.NewSync())
	pargs := defaultArgs(proc)
	r1, err := in1.Run(proc, pargs)
	if err != nil {
		return fail(stderr, fmt.Errorf("run original: %w", err))
	}
	var svc *exec.Service
	if *batchSize > 1 {
		svc = batch.NewService(*threads, testsvc.Runner(), testsvc.BatchRunner(),
			batch.Options{MaxBatch: *batchSize})
	} else {
		svc = exec.NewService(*threads, testsvc.Runner())
	}
	defer svc.Close()
	// -stats / -slowlog turn on the observability stack: one root span per
	// submission (the deterministic test runner needs no span runners —
	// queue wait and batch coalescing are still measured), with the
	// executor counters pulled into the same registry.
	var obsReg *obs.Registry
	if *stats || *slowlog > 0 {
		obsReg = obs.NewRegistry()
		tr := obs.NewTracer(obsReg)
		if *slowlog > 0 {
			tr.SetSlowLog(*slowlog, stderr)
		}
		svc.EnableTracing(tr)
		obsReg.RegisterSource("exec", func() map[string]float64 {
			submitted, completed := svc.Stats()
			batches, avg := svc.BatchStats()
			return map[string]float64{
				"submitted": float64(submitted),
				"completed": float64(completed),
				"batches":   float64(batches),
				"batch.avg": avg,
			}
		})
	}
	in2 := interp.New(reg, svc)
	r2, err := in2.Run(trans, pargs)
	if err != nil {
		return fail(stderr, fmt.Errorf("run transformed: %w", err))
	}
	same := r1.Output == r2.Output && len(r1.Returned) == len(r2.Returned)
	for i := range r1.Returned {
		same = same && interp.Equal(r1.Returned[i], r2.Returned[i])
	}
	fmt.Fprintf(stderr, "\n-- run: results identical: %v; returns: %v\n",
		same, formatVals(r1.Returned))
	if *batchSize > 1 {
		submitted, _ := svc.Stats()
		batches, avg := svc.BatchStats()
		fmt.Fprintf(stderr, "-- batch: %d submissions coalesced into %d batches (avg size %.1f)\n",
			submitted, batches, avg)
	}
	// Drain the pool before reading final span state: every pending handle
	// completes (ending its request span) before the dump.
	svc.Close()
	if *stats {
		fmt.Fprintln(stderr, "\n-- stats:")
		if err := obsReg.Dump(stderr); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// defaultArgs supplies simple arguments so -run works on programs with
// integer or list parameters: integers get 20, lists get [1..12].
func defaultArgs(p *ir.Proc) []interp.Value {
	args := make([]interp.Value, len(p.Params))
	for i := range args {
		items := make([]interp.Value, 12)
		for j := range items {
			items[j] = int64(j + 1)
		}
		if i%2 == 0 {
			args[i] = int64(20)
		} else {
			args[i] = interp.NewList(items...)
		}
	}
	return args
}

func formatVals(vals []interp.Value) string {
	out := "["
	for i, v := range vals {
		if i > 0 {
			out += ", "
		}
		out += interp.Format(v)
	}
	return out + "]"
}

func printDDGs(proc *ir.Proc, stdout, stderr io.Writer) {
	reg := ir.NewRegistry()
	n := 0
	ir.WalkStmts(proc.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.While, *ir.ForEach, *ir.Scan:
			n++
			g := dataflow.BuildLoop(s, reg)
			fmt.Fprint(stdout, g.Dot(fmt.Sprintf("%s_loop%d", proc.Name, n)))
		}
	})
	if n == 0 {
		fmt.Fprintln(stderr, "asyncq: no loops found")
	}
}

// fail prints err to stderr and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "asyncq:", err)
	return 1
}
