package chaos

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// connIdle reports whether WaitIdle would return at once: with an
// already-canceled context it returns nil only when the conn is idle.
func connIdle(c *PacketConn) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return c.WaitIdle(ctx) == nil
}

// TestPacketConnIdle walks the conn through every state that must not
// count as idle — no reader, a queued datagram, an armed deadline, a
// scripted error — and checks each resolves once a reader blocks on an
// empty, disarmed conn.
func TestPacketConnIdle(t *testing.T) {
	ctx := context.Background()
	c := NewPacketConn()
	defer c.Close()
	reads := make(chan error)
	read := func() {
		go func() {
			_, _, err := c.ReadFrom(make([]byte, 64))
			reads <- err
		}()
	}

	if connIdle(c) {
		t.Fatal("idle with no reader")
	}
	// WaitIdle started first wakes when a reader blocks.
	done := make(chan error, 1)
	go func() { done <- c.WaitIdle(ctx) }()
	read()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	c.Inject([]byte{1})
	if err := <-reads; err != nil {
		t.Fatalf("read of injected datagram: %v", err)
	}
	if connIdle(c) {
		t.Fatal("idle while the reader handles a datagram")
	}

	// An armed deadline sends the reader back instead of parking it.
	if err := c.SetReadDeadline(time.Now()); err != nil {
		t.Fatal(err)
	}
	read()
	if err := <-reads; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read with deadline armed = %v", err)
	}
	if connIdle(c) {
		t.Fatal("idle with a deadline armed")
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}

	// A queued scripted error is delivered, never parked on.
	c.InjectError(errScriptedSocket)
	if connIdle(c) {
		t.Fatal("idle with a scripted error queued")
	}
	read()
	if err := <-reads; !errors.Is(err, errScriptedSocket) {
		t.Fatalf("read with error queued = %v", err)
	}

	read()
	if err := c.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-reads; err == nil {
		t.Fatal("blocked read survived Close")
	}
	if connIdle(c) {
		t.Fatal("idle after Close")
	}
}

// TestGateWaitParked checks the park signal fires only once a consumer
// blocks at the closed gate, and that Open releases it.
func TestGateWaitParked(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var g Gate
	if err := g.WaitParked(ctx); err != nil {
		t.Fatalf("never-closed gate: %v", err)
	}
	g.Close()
	canceled, stop := context.WithCancel(ctx)
	stop()
	if err := g.WaitParked(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitParked with no consumer = %v, want context.Canceled", err)
	}
	released := make(chan struct{})
	go func() {
		g.Wait(ctx)
		close(released)
	}()
	if err := g.WaitParked(ctx); err != nil {
		t.Fatal(err)
	}
	g.Open()
	<-released
}
