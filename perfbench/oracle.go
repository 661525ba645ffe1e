package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/server"
	"repro/internal/wal"
)

// formsTable is the table the Forms kernel inserts into.
const formsTable = "formsmaster"

// checkResults loads a fresh reference server, replays every logged page's
// inputs through the original, untransformed kernel on it (tree-walking
// evaluator, blocking submission) and compares return values, output and
// every query's result (the tap's digest).
// It returns the indexes of the pages that disagree. Pages replay in run
// order, so a mutating kernel leaves the reference server holding what a
// single server would hold after the same pages.
func (st *stack) checkResults() (map[int]bool, error) {
	ref, err := loadReference(st.app)
	if err != nil {
		return nil, err
	}
	st.ref = ref
	bad := map[int]bool{}
	svc := exec.NewService(0, ref.Exec)
	defer svc.Close()
	refTap := &tap{svc: svc}
	in := interp.New(st.app.Registry(), refTap)
	for i, p := range st.pages {
		want, err := in.RunTree(st.orig, p.args)
		digest := refTap.take()
		if err != nil || p.err != nil || !sameResult(p, want) || p.digest != digest {
			bad[i] = true
		}
	}
	return bad, nil
}

func sameResult(p page, want *interp.Result) bool {
	if len(p.ret) != len(want.Returned) || p.out != want.Output {
		return false
	}
	for i := range p.ret {
		if !interp.Equal(p.ret[i], want.Returned[i]) {
			return false
		}
	}
	return true
}

// formRow identifies one inserted form: (agent, form number).
type formRow struct{ agent, formno int64 }

// toFormRow decodes a stored row; a malformed one decodes to form 0, which
// no page owns, so it always counts as unexpected.
func toFormRow(row []any) formRow {
	if len(row) != 2 {
		return formRow{}
	}
	a, _ := row[0].(int64)
	f, _ := row[1].(int64)
	return formRow{a, f}
}

// tableRows counts a server's formsmaster rows.
func tableRows(s *server.Server) map[formRow]int {
	out := map[formRow]int{}
	for rid, n := 0, s.NumTableRows(formsTable); rid < n; rid++ {
		out[toFormRow(s.TableRow(formsTable, rid))]++
	}
	return out
}

// markDiff marks the page of every row whose count differs between got
// and want; a row that maps to no logged page marks page -1.
func (st *stack) markDiff(got, want map[formRow]int, bad map[int]bool) {
	mark := func(r formRow) {
		p := pageOfForm(r.formno)
		if r.formno < 1 || p >= len(st.pages) {
			p = -1
		}
		bad[p] = true
	}
	for r, n := range want {
		if got[r] != n {
			mark(r)
		}
	}
	for r := range got {
		if _, ok := want[r]; !ok {
			mark(r)
		}
	}
}

// checkTables compares the cluster's formsmaster with the reference
// server's copy, which checkResults has brought to the same pages: the
// primaries together must hold exactly the reference rows, and every
// replica exactly its primary's. Call after quiesce, before closeCluster.
func (st *stack) checkTables(bad map[int]bool) {
	want := tableRows(st.ref)
	union := map[formRow]int{}
	for _, g := range st.groups {
		prim := tableRows(g.Primary())
		for r, n := range prim {
			union[r] += n
		}
		for _, rep := range g.Replicas() {
			st.markDiff(tableRows(rep), prim, bad)
		}
	}
	st.markDiff(union, want, bad)
}

// checkDurable reopens every shard's FileStore after closeCluster and
// checks that each acknowledged insert is on disk exactly once (snapshot
// plus log records), and nothing else is.
func (st *stack) checkDurable(bad map[int]bool) error {
	want := map[formRow]int{}
	for _, p := range st.pages {
		if p.err != nil {
			continue // not acknowledged; the page is already counted failed
		}
		for _, r := range p.args[0].(interp.Rows) {
			agent, lo, hi := r["agent"].(int64), r["lo"].(int64), r["hi"].(int64)
			for f := lo; f <= hi; f++ {
				want[formRow{agent, f}]++
			}
		}
	}
	got := map[formRow]int{}
	for i := 0; i < shards; i++ {
		fs, err := wal.NewFileStore(filepath.Join(st.walDir, fmt.Sprintf("shard%d", i)))
		if err != nil {
			return err
		}
		snap, recs, err := fs.Load()
		fs.Close()
		if err != nil {
			return fmt.Errorf("reopen shard %d WAL: %w", i, err)
		}
		if snap != nil {
			for _, t := range snap.Tables {
				if t.Name != formsTable {
					continue
				}
				for _, row := range t.Rows {
					got[toFormRow(row)]++
				}
			}
		}
		for _, rec := range recs {
			for _, set := range rec.ArgSets {
				got[toFormRow(set)]++
			}
		}
	}
	st.markDiff(got, want, bad)
	return nil
}
