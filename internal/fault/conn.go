package fault

import (
	stdnet "net"

	"repro/internal/simclock"
)

// Conn wraps a network connection with link-level fault injection: every
// Write is a SlowLink decision point (a firing delays the write by the
// kind's configured delay — a congested or lossy link, not a dead one).
// Frame-boundary faults (connection resets, torn frames) are injected by
// the wire client itself, which knows where a frame starts and which
// requests are in flight; a raw byte-level wrapper cannot tear safely.
type Conn struct {
	stdnet.Conn
	inj *Injector
}

// WrapConn wraps c; a nil injector returns c unchanged.
func WrapConn(c stdnet.Conn, inj *Injector) stdnet.Conn {
	if inj == nil {
		return c
	}
	return &Conn{Conn: c, inj: inj}
}

// Write delays when SlowLink fires, then forwards.
func (c *Conn) Write(b []byte) (int, error) {
	if c.inj.Should(SlowLink) {
		if d := c.inj.DelayFor(SlowLink); d > 0 {
			simclock.Sleep(d)
		}
	}
	return c.Conn.Write(b)
}
