package bgp

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// startServer runs a RouteServer on a loopback listener and returns its
// address plus a shutdown func that waits for Serve to exit.
func startServer(t *testing.T) (*RouteServer, string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &RouteServer{ASN: 65000, RouterID: [4]byte{10, 0, 0, 1}, Registry: NewRegistry()}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rs.Serve(ctx, ln) }()
	return rs, ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("route server did not shut down")
		}
	}
}

func waitCovered(t *testing.T, reg *Registry, ip netip.Addr, want bool) {
	t.Helper()
	if err := reg.Await(context.Background(), func() bool {
		return reg.Covered(ip, time.Now().Unix()) == want
	}); err != nil {
		t.Fatalf("registry never reached Covered(%s)=%v: %v", ip, want, err)
	}
}

// TestPersistentReplaysDesiredStateAfterKill drops the member session and
// checks that the next operation re-establishes it and replays every
// desired announcement, so the registry converges to the desired state.
func TestPersistentReplaysDesiredStateAfterKill(t *testing.T) {
	rs, addr, stop := startServer(t)
	defer stop()

	p := &Persistent{
		Addr:    addr,
		Local:   Open{ASN: 65001, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 2}},
		Backoff: &par.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Sleep: func(time.Duration) {}},
	}
	defer p.Close()
	ctx := context.Background()

	nh := netip.MustParseAddr("10.0.0.2")
	pfxA := netip.MustParsePrefix("203.0.113.7/32")
	pfxB := netip.MustParsePrefix("203.0.113.9/32")
	if err := p.Announce(ctx, pfxA, nh); err != nil {
		t.Fatal(err)
	}
	if err := p.Announce(ctx, pfxB, nh); err != nil {
		t.Fatal(err)
	}
	waitCovered(t, rs.Registry, pfxA.Addr(), true)
	waitCovered(t, rs.Registry, pfxB.Addr(), true)

	// Session drops; desired state survives. Withdraw of B must work on the
	// fresh session, and A must be re-announced by the replay.
	p.Kill()
	if err := p.Withdraw(ctx, pfxB); err != nil {
		t.Fatal(err)
	}
	waitCovered(t, rs.Registry, pfxB.Addr(), false)
	waitCovered(t, rs.Registry, pfxA.Addr(), true)
	if p.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1", p.Reconnects())
	}
	if p.DesiredCount() != 1 {
		t.Fatalf("DesiredCount = %d, want 1", p.DesiredCount())
	}
}

// TestPersistentRetriesDialWithBackoff scripts dial failures and checks the
// bounded retry gives up with an error, then succeeds once dials recover.
func TestPersistentRetriesDialWithBackoff(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()

	fails := 0
	var slept []time.Duration
	p := &Persistent{
		Addr:        addr,
		Local:       Open{ASN: 65002, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 3}},
		MaxAttempts: 3,
		Backoff:     &par.Backoff{Base: time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }},
		Dialer: func(ctx context.Context, addr string, local Open) (*Conn, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("scripted dial failure")
			}
			return Dial(ctx, addr, local)
		},
	}
	defer p.Close()
	ctx := context.Background()
	nh := netip.MustParseAddr("10.0.0.3")
	pfx := netip.MustParsePrefix("198.51.100.1/32")

	fails = 99 // everything fails: the op must give up after MaxAttempts
	if err := p.Announce(ctx, pfx, nh); err == nil {
		t.Fatal("Announce succeeded with all dials failing")
	}
	if len(slept) != 3 {
		t.Fatalf("backoff slept %d times, want 3 (one per attempt)", len(slept))
	}
	if p.DialFailures() != 3 {
		t.Fatalf("DialFailures = %d, want 3", p.DialFailures())
	}

	fails = 2 // two failures, then recovery
	if err := p.Announce(ctx, pfx, nh); err != nil {
		t.Fatalf("Announce after recovery: %v", err)
	}
	if p.DialFailures() != 5 {
		t.Fatalf("DialFailures = %d, want 5", p.DialFailures())
	}
}

// TestPersistentHonorsContext ensures a canceled context aborts the retry
// loop instead of burning attempts.
func TestPersistentHonorsContext(t *testing.T) {
	p := &Persistent{
		Addr:    "127.0.0.1:1", // nothing listens here
		Local:   Open{ASN: 65003, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 4}},
		Backoff: &par.Backoff{Base: time.Millisecond, Sleep: func(time.Duration) {}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.Announce(ctx, netip.MustParsePrefix("198.51.100.2/32"), netip.MustParseAddr("10.0.0.4"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRouteServerSurvivesSessionPanic injects a panicking registry clock and
// checks the server isolates the panic to the one session: other members
// keep working and the panic is counted.
func TestRouteServerSurvivesSessionPanic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var boom atomic.Bool
	rs := &RouteServer{
		ASN: 65000, RouterID: [4]byte{10, 0, 0, 1}, Registry: NewRegistry(),
		Clock: func() int64 {
			if boom.CompareAndSwap(true, false) {
				panic("scripted clock failure")
			}
			return time.Now().Unix()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- rs.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-done
	}()
	addr := ln.Addr().String()

	victim, err := Dial(ctx, addr, Open{ASN: 65001, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	survivor, err := Dial(ctx, addr, Open{ASN: 65002, HoldTime: 90, RouterID: [4]byte{10, 0, 0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	nh := netip.MustParseAddr("10.0.0.2")
	boom.Store(true)
	if err := victim.AnnounceBlackhole(netip.MustParsePrefix("203.0.113.1/32"), nh); err != nil {
		t.Fatal(err)
	}
	// Wait for the server to kill the victim's session (its conn closes),
	// so the scripted panic cannot leak onto the survivor's update instead.
	if _, err := victim.Read(); err == nil {
		t.Fatal("victim session survived the panic")
	}
	// The victim's session died from the panic; the survivor's keeps serving.
	if err := survivor.AnnounceBlackhole(netip.MustParsePrefix("203.0.113.2/32"), netip.MustParseAddr("10.0.0.3")); err != nil {
		t.Fatal(err)
	}
	waitCovered(t, rs.Registry, netip.MustParseAddr("203.0.113.2"), true)
	if rs.Registry.Covered(netip.MustParseAddr("203.0.113.1"), time.Now().Unix()) {
		t.Fatal("panicking update was applied")
	}
}
