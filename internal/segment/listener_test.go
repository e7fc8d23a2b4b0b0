package segment

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/sflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// scriptAddr is the address every scriptConn reports as bound.
var scriptAddr net.Addr = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 16343}

// scriptRead is one scripted ReadFrom result: a datagram or a read error.
type scriptRead struct {
	data []byte
	err  error
}

// scriptConn is an in-memory net.PacketConn that serves a fixed script of
// datagrams and read errors, then blocks until closed. Read deadlines are
// ignored, so a collector's partial batch stays pending until shutdown
// flushes it. With an empty script it is an idle socket, which keeps
// pipeline tests off real ports.
type scriptConn struct {
	reads     chan scriptRead
	closed    chan struct{}
	closeOnce sync.Once
	idleOnce  sync.Once
	idle      chan struct{} // closed once a reader has drained the script
}

func newScriptConn(script ...scriptRead) *scriptConn {
	c := &scriptConn{
		reads:  make(chan scriptRead, len(script)),
		closed: make(chan struct{}),
		idle:   make(chan struct{}),
	}
	for _, r := range script {
		c.reads <- r
	}
	return c
}

// idleListen hands out idle in-memory conns.
func idleListen(string, string) (net.PacketConn, error) { return newScriptConn(), nil }

func (c *scriptConn) ReadFrom(p []byte) (int, net.Addr, error) {
	select {
	case <-c.closed:
		return 0, nil, net.ErrClosed
	case r := <-c.reads:
		if r.err != nil {
			return 0, nil, r.err
		}
		return copy(p, r.data), scriptAddr, nil
	default:
	}
	c.idleOnce.Do(func() { close(c.idle) })
	<-c.closed
	return 0, nil, net.ErrClosed
}

func (c *scriptConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (c *scriptConn) LocalAddr() net.Addr                       { return scriptAddr }
func (c *scriptConn) SetDeadline(time.Time) error               { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error           { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error          { return nil }

// sflowDatagrams encodes the segment profile's first minute as n sFlow
// datagrams of per samples each.
func sflowDatagrams(t *testing.T, n, per int) [][]byte {
	t.Helper()
	flows := synth.NewGenerator(segProfile()).GenerateMinute(segStart, nil)
	if len(flows) < n*per {
		t.Fatalf("profile minute has %d flows, need %d", len(flows), n*per)
	}
	var b packet.Builder
	out := make([][]byte, n)
	for d := range out {
		samples := make([]sflow.FlowSample, per)
		for i := range samples {
			f := &flows[d*per+i]
			frame, err := synth.FrameFor(f, &b)
			if err != nil {
				t.Fatal(err)
			}
			samples[i] = sflow.FlowSample{
				Sequence:     uint32(d*per + i + 1),
				SamplingRate: f.SamplingRate,
				FrameLength:  uint32(f.Bytes / f.Packets),
				Header:       append([]byte(nil), frame...),
			}
		}
		data, err := sflow.Append(nil, &sflow.Datagram{
			AgentAddress: netip.MustParseAddr("192.0.2.10"),
			Sequence:     uint32(d + 1),
			Samples:      samples,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[d] = data
	}
	return out
}

// waitFor fails the test if ch does not close or deliver within a bound
// that only a hung supervisor can exceed.
func waitFor[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// TestListenerSupervision: a read error on a listener's socket must not end
// ingest. The supervisor re-opens the address the first socket bound, the
// collector keeps its partial batch across the restart, and every record
// before and after the error reaches the next segment. Close must not wait
// for a replacement socket that never comes.
func TestListenerSupervision(t *testing.T) {
	const per = 4
	dgs := sflowDatagrams(t, 3, per)
	errRead := errors.New("scripted read failure")
	cfg := func() *Config {
		// batch exceeds every record the test sends, so all of them sit in
		// the collector's partial batch until shutdown.
		return &Config{Name: "supervision", Pipeline: []SegmentConfig{
			{Kind: "sflow", Params: map[string]any{"listen": ":0", "batch": 64}},
			{Kind: "metrics"},
		}}
	}

	t.Run("restart", func(t *testing.T) {
		first := newScriptConn(scriptRead{data: dgs[0]}, scriptRead{data: dgs[1]}, scriptRead{err: errRead})
		second := newScriptConn(scriptRead{data: dgs[2]})
		var listens atomic.Int32
		reopened := make(chan string, 1)
		p, err := New(Env{ListenPacket: func(_, addr string) (net.PacketConn, error) {
			switch listens.Add(1) {
			case 1:
				return first, nil
			case 2:
				reopened <- addr
				return second, nil
			}
			return nil, errors.New("unexpected third listen")
		}}, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if addr := waitFor(t, reopened, "the listener to re-open its socket"); addr != scriptAddr.String() {
			t.Errorf("re-opened %q, want the first socket's bound address %q", addr, scriptAddr)
		}
		waitFor(t, second.idle, "the restarted listener to read the new socket")
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if n := listens.Load(); n != 2 {
			t.Errorf("ListenPacket called %d times, want 2", n)
		}
		col := p.Instances()[0].(*sflowSegment).Collector()
		sink := p.Instances()[1].(*metricsSegment)
		want := uint64(len(dgs) * per)
		if got := col.Stats.Records.Load(); got != want {
			t.Fatalf("collector converted %d records, want %d", got, want)
		}
		if got := sink.Delivered(); got != want {
			t.Errorf("sink received %d records, want %d: the restart lost records", got, want)
		}
	})

	t.Run("close-while-reopening", func(t *testing.T) {
		first := newScriptConn(scriptRead{data: dgs[0]}, scriptRead{err: errRead})
		var listens atomic.Int32
		waiting := make(chan struct{})
		release := make(chan struct{})
		t.Cleanup(func() { close(release) })
		p, err := New(Env{ListenPacket: func(string, string) (net.PacketConn, error) {
			if listens.Add(1) == 1 {
				return first, nil
			}
			close(waiting)
			<-release
			return nil, errors.New("no replacement socket")
		}}, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitFor(t, waiting, "the supervisor to ask for a replacement socket")
		closed := make(chan error, 1)
		go func() { closed <- p.Close() }()
		if err := waitFor(t, closed, "Close while the supervisor waits in ListenPacket"); err != nil {
			t.Fatal(err)
		}
		// The partial batch read before the error is flushed on shutdown.
		if got, want := p.Instances()[1].(*metricsSegment).Delivered(), uint64(per); got != want {
			t.Errorf("sink received %d records, want %d", got, want)
		}
	})
}
