package chaos

import (
	"context"
	"net"
	"os"
	"sync"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// chaosAddr is the fixed pseudo-address the conn reports.
var chaosAddr net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 6343}

// PacketConn is an in-memory net.PacketConn the harness feeds datagrams
// into. Unlike a loopback UDP socket it never loses or reorders packets,
// which is what makes fault scenarios bit-reproducible, and it lets the
// script return an exact read error at an exact point in the stream.
//
// Deadline semantics are virtual: while a read deadline is armed and the
// queue is empty, ReadFrom fails with os.ErrDeadlineExceeded immediately
// instead of waiting out the wall-clock interval. The collector only arms
// a deadline while a partial batch is pending, so this turns its
// "flush on idle" path into a deterministic "flush once the injected
// stream is drained" with no real-time sleeps.
//
// The same rule makes an idle conn a drain signal: a reader blocked with
// no deadline armed means the collector has no partial batch pending, and
// its EmitBatch is synchronous, so every injected datagram has been
// decoded and emitted. WaitIdle waits for that.
type PacketConn struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   [][]byte
	errs    []error // scripted read errors, surfaced once the queue drains
	closed  bool
	armed   bool      // a read deadline is set
	blocked bool      // a reader waits in ReadFrom
	parked  par.Event // fired when a reader blocks
}

// NewPacketConn returns an empty conn ready for injection.
func NewPacketConn() *PacketConn {
	c := &PacketConn{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Inject appends one datagram (copied) to the read queue.
func (c *PacketConn) Inject(data []byte) {
	c.mu.Lock()
	c.queue = append(c.queue, append([]byte(nil), data...))
	c.mu.Unlock()
	c.cond.Broadcast()
}

// InjectError makes a future ReadFrom return err after all previously
// injected datagrams have been read — the scripted socket failure.
func (c *PacketConn) InjectError(err error) {
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// ReadFrom pops the next datagram. Order of precedence with an empty
// queue: closed conn, scripted error, armed deadline, block for more data.
func (c *PacketConn) ReadFrom(p []byte) (int, net.Addr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return 0, nil, net.ErrClosed
		}
		if len(c.queue) > 0 {
			d := c.queue[0]
			c.queue = c.queue[1:]
			n := copy(p, d)
			return n, chaosAddr, nil
		}
		if len(c.errs) > 0 {
			err := c.errs[0]
			c.errs = c.errs[1:]
			return 0, nil, err
		}
		if c.armed {
			return 0, nil, os.ErrDeadlineExceeded
		}
		c.blocked = true
		c.parked.Fire()
		c.cond.Wait()
		c.blocked = false
	}
}

// WaitIdle blocks until a reader is blocked in ReadFrom with nothing to
// return — no queued datagram, no scripted error, no armed deadline, conn
// open — or until ctx ends.
func (c *PacketConn) WaitIdle(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parked.Await(ctx, &c.mu, func() bool {
		return c.blocked && len(c.queue) == 0 && len(c.errs) == 0 && !c.armed && !c.closed
	})
}

// WriteTo discards the datagram (the collector never writes).
func (c *PacketConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }

// Close marks the conn closed and wakes blocked readers.
func (c *PacketConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

// LocalAddr reports the fixed pseudo-address.
func (c *PacketConn) LocalAddr() net.Addr { return chaosAddr }

// SetDeadline arms or disarms the virtual read deadline.
func (c *PacketConn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline arms the virtual deadline when t is non-zero. The actual
// instant is ignored: an armed deadline on an empty queue expires at once.
func (c *PacketConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.armed = !t.IsZero()
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

// SetWriteDeadline is a no-op (writes never block).
func (c *PacketConn) SetWriteDeadline(time.Time) error { return nil }
