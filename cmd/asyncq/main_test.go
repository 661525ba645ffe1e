package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/net"
	"repro/internal/query"
)

// prog is the paper's Example 2 shape driven by an int parameter: one
// query per iteration whose result the next statement consumes.
const prog = `proc partCounts(n) {
  query q0 = "select count(partkey) from part where p_category = ?";
  sum = 0;
  i = 0;
  while (i < n) {
    partCount = execQuery(q0, i);
    sum = sum + partCount;
    i = i + 1;
  }
  return sum;
}
`

// runCmd runs the command on args with prog written to a file appended as
// the last argument, and returns its exit code, stdout and stderr.
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mq")
	if err := os.WriteFile(path, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(append(args, path), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// line returns the first line of out starting with prefix, or "".
func line(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func TestRunResultsIdenticalWithAndWithoutBatching(t *testing.T) {
	var runLines []string
	for _, b := range []string{"0", "8"} {
		code, stdout, stderr := runCmd(t, "-run", "-batch", b)
		if code != 0 {
			t.Fatalf("-batch %s: exit %d, stderr:\n%s", b, code, stderr)
		}
		if !strings.Contains(stdout, "h1 = submit(q0, i1);") || !strings.Contains(stdout, "partCount = fetch(h2);") {
			t.Fatalf("-batch %s: stdout is not the transformed program:\n%s", b, stdout)
		}
		l := line(stderr, "-- run: ")
		if !strings.Contains(l, "results identical: true") {
			t.Fatalf("-batch %s: run line %q, stderr:\n%s", b, l, stderr)
		}
		runLines = append(runLines, l)
		batchLine := line(stderr, "-- batch: ")
		if b == "0" && batchLine != "" {
			t.Fatalf("-batch 0 reported batching: %q", batchLine)
		}
		if b == "8" && !strings.HasPrefix(batchLine, "-- batch: 20 submissions coalesced into ") {
			t.Fatalf("-batch 8: batch line %q, stderr:\n%s", batchLine, stderr)
		}
	}
	if runLines[0] != runLines[1] {
		t.Fatalf("returns differ with batching: %q vs %q", runLines[0], runLines[1])
	}
	if !strings.HasSuffix(runLines[0], "returns: [972]") {
		t.Fatalf("run line %q, want returns [972]", runLines[0])
	}
}

func TestRunStatsDumpsExecutorAndSpans(t *testing.T) {
	code, _, stderr := runCmd(t, "-run", "-batch", "8", "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"-- stats:", "== exec ==", "span.request.wall"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stats dump lacks %q:\n%s", want, stderr)
		}
	}
	if got := sourceValue(stderr, "exec", "completed"); got != 20 {
		t.Fatalf("exec completed = %v, want 20:\n%s", got, stderr)
	}
}

func TestAnalyzePrintsSiteCount(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-analyze")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if want := "procedure partCounts: 1 opportunity site(s), 1 transformed"; line(stdout, "procedure ") != want {
		t.Fatalf("analysis %q, want %q:\n%s", line(stdout, "procedure "), want, stdout)
	}
}

// The modelled cluster's flags are gone: the real stack is the only
// cluster, and -run rejects them as unknown.
func TestRunRejectsRemovedClusterFlags(t *testing.T) {
	for _, f := range []string{"-shards", "-reshard"} {
		code, _, stderr := runCmd(t, "-run", f, "3")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+f) {
			t.Fatalf("%s: exit %d, stderr:\n%s", f, code, stderr)
		}
	}
}

// The -serve registry carries the replica group's own sources — queries,
// buffer and disk under "group", appends and syncs under "wal" — next to
// the front door's, so the shutdown dump shows the served cluster's work.
func TestServeStatsDumpsGroupAndWAL(t *testing.T) {
	var stdout, stderr bytes.Buffer
	f, err := serve(serveOptions{
		addr: "127.0.0.1:0", rows: 50, inflight: 8,
		replicas: 1, scale: 0.02,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "serving 50-row load table on 127.0.0.1:") {
		t.Fatalf("banner: %q", stdout.String())
	}
	c, err := net.Dial(f.fd.Addr())
	if err != nil {
		f.shutdown(&stderr, true)
		t.Fatal(err)
	}
	const reads = 5
	for i := int64(1); i <= reads; i++ {
		res := c.Exec(query.Req("get", "select val from load where id = ?", []any{i}))
		if res.Err != nil {
			t.Errorf("select id %d: %v", i, res.Err)
		}
	}
	if res := c.Exec(query.Req("put", "insert into load values (?, ?)", []any{int64(51), "v51"})); res.Err != nil {
		t.Errorf("insert: %v", res.Err)
	}
	c.Close()
	if err := f.shutdown(&stderr, true); err != nil {
		t.Fatal(err)
	}
	dump := stderr.String()
	for _, want := range []string{"== group ==", "== wal ==", "== net.admission =="} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump lacks %q:\n%s", want, dump)
		}
	}
	if got := sourceValue(dump, "group", "queries"); got < reads {
		t.Fatalf("group queries = %v, want >= %d:\n%s", got, reads, dump)
	}
	if got := sourceValue(dump, "wal", "appends"); got < 1 {
		t.Fatalf("wal appends = %v, want >= 1:\n%s", got, dump)
	}
}

// sourceValue reads key from the "== src ==" section of a registry dump,
// or -1 when the section or key is missing.
func sourceValue(dump, src, key string) float64 {
	in := false
	for _, l := range strings.Split(dump, "\n") {
		if strings.HasPrefix(l, "== ") {
			in = l == "== "+src+" =="
			continue
		}
		if fields := strings.Fields(l); in && len(fields) == 2 && fields[0] == key {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}
