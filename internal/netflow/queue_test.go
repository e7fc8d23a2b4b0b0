package netflow

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
)

func qrec(minute int64, i int) Record {
	return Record{
		Timestamp: minute*60 + int64(i%60),
		SrcIP:     netip.MustParseAddr("10.0.0.1"),
		DstIP:     netip.MustParseAddr("10.0.0.2"),
		Packets:   1, Bytes: 64,
	}
}

func TestQueueFIFOAndCopy(t *testing.T) {
	q := NewQueue(4, Block)
	batch := []Record{qrec(0, 0), qrec(0, 1)}
	if !q.Put(batch) {
		t.Fatal("put failed")
	}
	batch[0].SrcPort = 999 // caller reuses its slice; queue must have copied
	if !q.Put([]Record{qrec(1, 0)}) {
		t.Fatal("put failed")
	}
	ctx := context.Background()
	got, ok := q.Get(ctx)
	if !ok || len(got) != 2 {
		t.Fatalf("get = %v, %v", got, ok)
	}
	if got[0].SrcPort == 999 {
		t.Fatal("queue aliased the producer's batch slice")
	}
	got, ok = q.Get(ctx)
	if !ok || len(got) != 1 || got[0].Minute() != 1 {
		t.Fatalf("fifo order broken: %v", got)
	}
	if q.Stats.BatchesIn.Load() != 2 || q.Stats.RecordsIn.Load() != 3 ||
		q.Stats.BatchesOut.Load() != 2 || q.Stats.RecordsOut.Load() != 3 {
		t.Fatalf("stats mismatch: %+v", &q.Stats)
	}
}

func TestQueueDropNewest(t *testing.T) {
	q := NewQueue(2, DropNewest)
	for i := 0; i < 2; i++ {
		if !q.Put([]Record{qrec(int64(i), 0)}) {
			t.Fatal("put on non-full queue failed")
		}
	}
	if q.Put([]Record{qrec(9, 0), qrec(9, 1)}) {
		t.Fatal("put on full drop-newest queue succeeded")
	}
	if d := q.Stats.DroppedBatches.Load(); d != 1 {
		t.Fatalf("dropped batches = %d", d)
	}
	if d := q.Stats.DroppedRecords.Load(); d != 2 {
		t.Fatalf("dropped records = %d", d)
	}
	// The queued batches survive untouched.
	b, _ := q.Get(context.Background())
	if b[0].Minute() != 0 {
		t.Fatalf("oldest batch = minute %d", b[0].Minute())
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(2, DropOldest)
	for i := 0; i < 3; i++ {
		if !q.Put([]Record{qrec(int64(i), 0)}) {
			t.Fatal("drop-oldest put failed")
		}
	}
	if d := q.Stats.DroppedBatches.Load(); d != 1 {
		t.Fatalf("dropped batches = %d", d)
	}
	b, _ := q.Get(context.Background())
	if b[0].Minute() != 1 {
		t.Fatalf("oldest surviving batch = minute %d, want 1 (minute 0 evicted)", b[0].Minute())
	}
}

func TestQueueBlockBackpressure(t *testing.T) {
	q := NewQueue(1, Block)
	q.Put([]Record{qrec(0, 0)})
	done := make(chan struct{})
	go func() {
		q.Put([]Record{qrec(1, 0)}) // must wait for the consumer
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put on a full Block queue returned before a Get")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Get(context.Background()); !ok {
		t.Fatal("get failed")
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Put never resumed after Get freed space")
	}
	if q.Stats.BlockedPuts.Load() == 0 {
		t.Fatal("BlockedPuts not counted")
	}
}

func TestQueueCloseDrainsAndUnblocks(t *testing.T) {
	q := NewQueue(4, Block)
	q.Put([]Record{qrec(0, 0)})
	q.Close()
	if q.Put([]Record{qrec(1, 0)}) {
		t.Fatal("Put after Close succeeded")
	}
	ctx := context.Background()
	if b, ok := q.Get(ctx); !ok || len(b) != 1 {
		t.Fatal("Close discarded queued batches")
	}
	if _, ok := q.Get(ctx); ok {
		t.Fatal("Get on drained closed queue returned a batch")
	}
}

func TestQueueGetHonorsContext(t *testing.T) {
	q := NewQueue(1, Block)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, ok := q.Get(ctx); ok {
		t.Fatal("Get returned a batch from an empty queue")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue(8, Block)
	const producers, per = 4, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Put([]Record{qrec(int64(p), i)})
			}
		}(p)
	}
	go func() { wg.Wait(); q.Close() }()
	var total int
	ctx := context.Background()
	for {
		b, ok := q.Get(ctx)
		if !ok {
			break
		}
		total += len(b)
	}
	if total != producers*per {
		t.Fatalf("consumed %d records, want %d", total, producers*per)
	}
}

// probeDrained reports whether WaitDrained would return at once: with an
// already-canceled context it returns nil only when the queue is drained.
func probeDrained(q *Queue) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return q.WaitDrained(ctx) == nil
}

// gatedConsumer runs a consumer that reports each batch it takes on took
// and then holds it until release delivers a token — a ConsumeGate.
func gatedConsumer(ctx context.Context, q *Queue, took chan<- []Record, release <-chan struct{}) {
	go func() {
		for {
			b, ok := q.Get(ctx)
			if !ok {
				return
			}
			took <- b
			select {
			case <-release:
			case <-ctx.Done():
				return
			}
		}
	}()
}

func TestQueueWaitDrainedWaitsForConsumer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := NewQueue(4, Block)
	if probeDrained(q) {
		t.Fatal("drained before any consumer entered Get")
	}
	took := make(chan []Record)
	release := make(chan struct{})
	gatedConsumer(ctx, q, took, release)
	if err := q.WaitDrained(ctx); err != nil {
		t.Fatalf("idle consumer on an empty queue: %v", err)
	}

	q.Put([]Record{qrec(0, 0)})
	done := make(chan error, 1)
	go func() { done <- q.WaitDrained(ctx) }()
	<-took // the consumer holds the batch at its gate
	if probeDrained(q) {
		t.Fatal("drained while the consumer still holds a batch")
	}
	select {
	case err := <-done:
		t.Fatalf("WaitDrained returned %v while the consumer was gated", err)
	default:
	}
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatalf("WaitDrained after release: %v", err)
	}
	if !probeDrained(q) {
		t.Fatal("not drained after the consumer came back to Get")
	}
}

func TestQueueWaitDrainedHonorsContext(t *testing.T) {
	q := NewQueue(4, Block)
	took := make(chan []Record, 1)
	consumerCtx, stopConsumer := context.WithCancel(context.Background())
	defer stopConsumer()
	gatedConsumer(consumerCtx, q, took, make(chan struct{}))
	q.Put([]Record{qrec(0, 0)})
	<-took

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.WaitDrained(ctx) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitDrained on cancel = %v, want context.Canceled", err)
	}
}

// TestQueueWaitDrainedAtCapacity overflows a queue with no consumer under
// both drop policies, then checks WaitDrained returns exactly when the
// consumer has worked off what survived.
func TestQueueWaitDrainedAtCapacity(t *testing.T) {
	for _, tc := range []struct {
		policy DropPolicy
		first  int64 // minute of the first surviving batch
	}{
		{DropNewest, 0},
		{DropOldest, 2},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			q := NewQueue(2, tc.policy)
			for m := int64(0); m < 4; m++ {
				q.Put([]Record{qrec(m, 0), qrec(m, 1)})
			}
			if got := q.Stats.DroppedRecords.Load(); got != 4 {
				t.Fatalf("dropped %d records at capacity, want 4", got)
			}
			if probeDrained(q) {
				t.Fatal("drained with a full queue and no consumer")
			}
			var consumed []int64
			took := make(chan []Record, 2)
			release := make(chan struct{}, 2)
			release <- struct{}{}
			release <- struct{}{}
			gatedConsumer(ctx, q, took, release)
			if err := q.WaitDrained(ctx); err != nil {
				t.Fatal(err)
			}
			close(took)
			for b := range took {
				consumed = append(consumed, b[0].Timestamp/60)
			}
			if len(consumed) != 2 || consumed[0] != tc.first || consumed[1] != tc.first+1 {
				t.Fatalf("consumed minutes %v, want [%d %d]", consumed, tc.first, tc.first+1)
			}
			if out := q.Stats.RecordsOut.Load(); out != 4 {
				t.Fatalf("RecordsOut = %d after drain, want 4", out)
			}
		})
	}
}

// TestQueuePutGetAllocs pins the hand-off's allocations with no drain
// waiter: only the batch copy. A wake-up channel is made only when the
// consumer finds the queue empty, never per Put.
func TestQueuePutGetAllocs(t *testing.T) {
	q := NewQueue(4, Block)
	batch := []Record{qrec(0, 0), qrec(0, 1)}
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		q.Put(batch)
		q.Get(ctx)
	}); n > 1 {
		t.Fatalf("Put+Get allocates %v times, want <= 1", n)
	}
}
