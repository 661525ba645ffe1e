package main

import "repro/internal/interp"

// tap sits between the interpreter and its query service and keeps, for
// the page being run, every query result the program receives, in
// submission order: the handles of submitted queries and the results of
// blocking ones. A kernel's return value can hide a wrong answer (RUBiS
// returns a sum, so two swapped results cancel out); comparing every
// query's result with the reference run's does not. The interpreter calls
// the service from one goroutine, so the tap needs no lock.
type tap struct {
	svc interp.QueryService
	got []interp.Handle
}

func (t *tap) Exec(name, sql string, args []interp.Value) (interp.Value, error) {
	v, err := t.svc.Exec(name, sql, args)
	t.got = append(t.got, doneHandle{v, err})
	return v, err
}

func (t *tap) Submit(name, sql string, args []interp.Value) (interp.Handle, error) {
	h, err := t.svc.Submit(name, sql, args)
	if err == nil {
		t.got = append(t.got, h)
	}
	return h, err
}

// take digests the results of the page just run, in submission order, and
// empties the tap. Call it after the page returns: every handle is then
// complete, and Fetch only reads its stored result.
func (t *tap) take() uint64 {
	h := uint64(fnvOffset)
	for i, x := range t.got {
		v, err := x.Fetch()
		if err != nil {
			h = mixString(mix(h, 'e'), err.Error())
		} else {
			h = digest(h, v)
		}
		t.got[i] = nil
	}
	t.got = t.got[:0]
	return h
}

type doneHandle struct {
	v   interp.Value
	err error
}

func (d doneHandle) Fetch() (interp.Value, error) { return d.v, d.err }

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, s[i])
	}
	return mix(h, 0)
}

// digest folds v into h under a canonical encoding: a type tag before each
// value, row fields in name order. It allocates nothing for the values
// queries return (scalars, rows of at most eight columns, row sets); other
// values fall back to interp.Format.
func digest(h uint64, v interp.Value) uint64 {
	switch x := v.(type) {
	case nil:
		return mix(h, 'n')
	case int64:
		h = mix(h, 'i')
		for i := 0; i < 8; i++ {
			h = mix(h, byte(x>>(8*i)))
		}
		return h
	case string:
		return mixString(mix(h, 's'), x)
	case bool:
		if x {
			return mix(h, 'T')
		}
		return mix(h, 'F')
	case interp.Rows:
		h = mix(h, 'R')
		for _, r := range x {
			h = digest(h, r)
		}
		return mix(h, ';')
	case interp.Row:
		var buf [8]string
		keys := buf[:0]
		for k := range x {
			keys = append(keys, k)
		}
		for i := 1; i < len(keys); i++ { // insertion sort: rows are narrow
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		h = mix(h, '{')
		for _, k := range keys {
			h = digest(mixString(h, k), x[k])
		}
		return mix(h, '}')
	default:
		return mixString(mix(h, '?'), interp.Format(v))
	}
}
