package main

import (
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// feedAddr is the pseudo peer address every datagram arrives from.
var feedAddr net.Addr = &net.UDPAddr{IP: net.IPv4(192, 0, 2, 10), Port: 6343}

// feedConn is the benchmark's in-memory net.PacketConn, handed to the
// pipeline's sFlow listener through segment.Env.ListenPacket. It serves
// the corpus datagrams in order and drives the pipeline's virtual clock:
// reading the first datagram of a minute sets the clock to that minute.
//
// Reads park before the minute the host has not released yet (runTo), so
// the host can drain the pipeline and run a training round at an exact
// minute boundary. A parked read is the collector blocked in ReadFrom; it
// never spins or sleeps.
//
// The collector arms a read deadline only while it holds a partial batch.
// At a minute boundary an armed read fails at once with
// os.ErrDeadlineExceeded, so the collector flushes; batches therefore never
// span minutes, and when the reader leaves a minute every record of it has
// passed the dropper. onMinute reports that point, on the reader goroutine.
type feedConn struct {
	c        *corpus
	clock    atomic.Int64 // virtual unix seconds
	onMinute func(m int)
	// swallow is the index of a datagram the conn silently loses (the
	// fault the conservation gate must catch); -1 loses nothing.
	swallow int

	mu        sync.Mutex
	cond      *sync.Cond
	next      int // next datagram to serve
	nextMin   int // minute of datagram next (c.minutes once exhausted)
	cur       int // minute of the last datagram served; -1 before the first
	reported  int // minutes [0, reported) were passed to onMinute
	limit     int // reads park before this minute
	parkedAt  int // limit at which the reader last parked; -1 never
	armed     bool
	closed    bool
	waitNS    int64     // time the reader spent parked, finished parks only
	parkStart time.Time // start of the ongoing park; zero when reading
}

func newFeedConn(c *corpus, onMinute func(int)) *feedConn {
	f := &feedConn{c: c, onMinute: onMinute, swallow: -1, cur: -1, parkedAt: -1}
	f.cond = sync.NewCond(&f.mu)
	f.clock.Store(unix(0))
	return f
}

// Now is the pipeline clock (segment.Env.Clock).
func (f *feedConn) Now() int64 { return f.clock.Load() }

// ReadFrom serves the next datagram, parking at the release limit.
func (f *feedConn) ReadFrom(p []byte) (int, net.Addr, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return 0, nil, net.ErrClosed
		}
		for f.nextMin < f.c.minutes && f.c.dgMin[f.nextMin+1] <= f.next {
			f.nextMin++
		}
		m := f.nextMin
		if f.cur >= f.reported && m != f.cur {
			if f.armed {
				return 0, nil, os.ErrDeadlineExceeded
			}
			f.reported = f.cur + 1
			if f.onMinute != nil {
				f.onMinute(f.cur)
			}
		}
		if m >= f.limit {
			f.parkedAt = f.limit
			f.cond.Broadcast()
			f.parkStart = time.Now()
			for m >= f.limit && !f.closed {
				f.cond.Wait()
			}
			f.waitNS += int64(time.Since(f.parkStart))
			f.parkStart = time.Time{}
			continue
		}
		if m != f.cur {
			f.cur = m
			f.clock.Store(unix(m))
		}
		i := f.next
		f.next++
		if i == f.swallow {
			continue
		}
		return copy(p, f.c.dgs[i]), feedAddr, nil
	}
}

// runTo releases reads up to (not including) minute limit and waits until
// the reader has parked there: every datagram before it has been handed
// to the collector and its records flushed downstream.
func (f *feedConn) runTo(limit int) {
	f.mu.Lock()
	f.limit = limit
	f.cond.Broadcast()
	for f.parkedAt != limit && !f.closed {
		f.cond.Wait()
	}
	f.mu.Unlock()
}

// parkedNS returns the reader's total parked time so far, including a
// park still in progress.
func (f *feedConn) parkedNS() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.parkStart.IsZero() {
		return f.waitNS
	}
	return f.waitNS + int64(time.Since(f.parkStart))
}

func (f *feedConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }

func (f *feedConn) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	return nil
}

func (f *feedConn) LocalAddr() net.Addr { return feedAddr }

func (f *feedConn) SetDeadline(t time.Time) error { return f.SetReadDeadline(t) }

// SetReadDeadline records whether the collector holds a partial batch; the
// instant itself is ignored (see the type comment).
func (f *feedConn) SetReadDeadline(t time.Time) error {
	f.mu.Lock()
	f.armed = !t.IsZero()
	f.mu.Unlock()
	return nil
}

func (f *feedConn) SetWriteDeadline(time.Time) error { return nil }
