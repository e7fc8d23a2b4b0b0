package par

import (
	"context"
	"sync"
)

// Event wakes goroutines waiting on state guarded by their owner's lock: a
// sync.Cond broadcast that a waiter can also abandon when its context ends.
// The zero Event is ready. Call every method with the owner's lock held.
type Event struct{ ch chan struct{} }

// C returns a channel the next Fire closes.
func (e *Event) C() <-chan struct{} {
	if e.ch == nil {
		e.ch = make(chan struct{})
	}
	return e.ch
}

// Fire wakes every waiter. With none it only tests a nil channel, so it
// may sit on a hot path.
func (e *Event) Fire() {
	if e.ch != nil {
		close(e.ch)
		e.ch = nil
	}
}

// Await blocks until cond holds or ctx ends, re-evaluating cond after each
// Fire. mu is the owner's lock: held on entry, on return and while cond
// runs; released while waiting.
func (e *Event) Await(ctx context.Context, mu sync.Locker, cond func() bool) error {
	for !cond() {
		ch := e.C()
		mu.Unlock()
		select {
		case <-ctx.Done():
			mu.Lock()
			return ctx.Err()
		case <-ch:
		}
		mu.Lock()
	}
	return nil
}
