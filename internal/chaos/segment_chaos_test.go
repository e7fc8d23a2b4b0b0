package chaos

// Segment-pipeline chaos: the config-driven pipeline assembler
// (internal/segment) is built programmatically — the same constructor the
// daemon's flag path uses — and its diskbuffer WAL is crashed mid-run. The
// restarted incarnation must replay every spilled record downstream, in
// order and bit-for-bit, with conservation intact end to end.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/segment"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// segmentSinkCounts is the accessor shape the segment package exports on
// its metrics sink and diskbuffer instances.
type segmentSink interface{ Delivered() uint64 }
type segmentWAL interface {
	Journaled() uint64
	Replayed() uint64
}

func TestSegmentDiskbufferCrashRestart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	dataset := filepath.Join(dir, "input.flows")

	// A deterministic flow dataset on disk, as a capture job would leave it.
	prof := DefaultProfile()
	prof.Name = "IXP-SEGCHAOS"
	gen := synth.NewGenerator(prof)
	var flows []synth.Flow
	for m := int64(0); m < 4; m++ {
		flows = gen.GenerateMinute(DefaultStartMin+m, flows)
	}
	f, err := os.Create(dataset)
	if err != nil {
		t.Fatal(err)
	}
	w := netflow.NewWriter(f)
	for i := range flows {
		if err := w.Write(&flows[i].Record); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	total := uint64(len(flows))

	// Incarnation 1: dataset -> diskbuffer (journals every batch) -> sink.
	// The run ends when the finite input drains; then the process "dies"
	// without Close, leaving the spill on disk.
	run1 := &segment.Config{Name: "chaos-crash", Pipeline: []segment.SegmentConfig{
		{Kind: "netflow", Params: map[string]any{"path": dataset}},
		{Kind: "diskbuffer", Params: map[string]any{"dir": walDir, "sync": true}},
		{Kind: "metrics", Params: map[string]any{"name": "run1"}},
	}}
	p1, err := segment.New(segment.Env{}, run1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	<-p1.Done() // incarnation 1 drained its dataset
	wal1 := p1.Instances()[1].(segmentWAL)
	sink1 := p1.Instances()[2].(segmentSink)
	if wal1.Journaled() != total || sink1.Delivered() != total {
		t.Fatalf("incarnation 1: journaled %d, delivered %d, want %d",
			wal1.Journaled(), sink1.Delivered(), total)
	}
	// Crash: no Close. The spill file survives with every record flushed.
	if spills, _ := filepath.Glob(filepath.Join(walDir, "spill-*.wal")); len(spills) != 1 {
		t.Fatalf("crash left %d spill files, want 1", len(spills))
	}

	// Incarnation 2: the diskbuffer now sits at the head — a replay-only
	// input draining the crashed run's spill into a JSONL archive.
	archive := filepath.Join(dir, "recovered.jsonl")
	run2 := &segment.Config{Name: "chaos-restart", Pipeline: []segment.SegmentConfig{
		{Kind: "diskbuffer", Params: map[string]any{"dir": walDir}},
		{Kind: "jsonl", Params: map[string]any{"path": archive}},
		{Kind: "metrics", Params: map[string]any{"name": "run2"}},
	}}
	p2, err := segment.New(segment.Env{}, run2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	<-p2.Done() // incarnation 2 drained the spill
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	wal2 := p2.Instances()[0].(segmentWAL)
	sink2 := p2.Instances()[2].(segmentSink)
	if wal2.Replayed() != total || sink2.Delivered() != total {
		t.Fatalf("incarnation 2: replayed %d, delivered %d, want %d",
			wal2.Replayed(), sink2.Delivered(), total)
	}
	if left, _ := filepath.Glob(filepath.Join(walDir, "spill-*.wal")); len(left) != 0 {
		t.Fatalf("replayed spill not removed: %v", left)
	}

	// Bit-for-bit: the recovered archive must render exactly the records
	// the crashed run journaled, in journal order — i.e. the dataset as
	// its codec decoded it.
	var want strings.Builder
	df, err := os.Open(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	r := netflow.NewReader(df)
	buf := make([]netflow.Record, 256)
	for {
		n, err := r.ReadBatch(buf)
		for i := 0; i < n; i++ {
			line, merr := json.Marshal(&buf[i])
			if merr != nil {
				t.Fatal(merr)
			}
			want.Write(line)
			want.WriteByte('\n')
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("recovered archive diverges from the journaled stream: %d vs %d bytes (digest %x vs %x)",
			len(got), want.Len(), netflow.FoldString(netflow.FNVOffset, string(got)), netflow.FoldString(netflow.FNVOffset, want.String()))
	}

	CheckGoroutines(t, baseline)
}
