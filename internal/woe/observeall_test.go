package woe

import (
	"bytes"
	"sync"
	"testing"
)

// TestObserveAllMatchesObserve: one batch counts exactly what the same
// observations made one Observe call at a time count, on top of counts the
// encoder already holds.
func TestObserveAllMatchesObserve(t *testing.T) {
	keys := make([]uint64, 500)
	labels := make([]bool, len(keys))
	for i := range keys {
		keys[i] = uint64(i*i) % 97
		labels[i] = i%3 == 0
	}
	one, batch := fittedEncoder(50), fittedEncoder(50)
	for i := range keys {
		one.Observe("src_port", keys[i], labels[i])
	}
	batch.ObserveAll("src_port", len(keys), func(i int) (uint64, bool) { return keys[i], labels[i] })
	if one.Fingerprint() != batch.Fingerprint() {
		t.Fatal("fingerprints differ")
	}
	var a, b bytes.Buffer
	if err := one.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := batch.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("saved encoders differ")
	}
	for k := uint64(0); k < 100; k++ {
		if got, want := batch.WoE("src_port", k), one.WoE("src_port", k); got != want {
			t.Fatalf("WoE(%d) = %v, want %v", k, got, want)
		}
	}
}

// TestObserveAllEmpty: an empty batch neither dirties the encoder, nor
// creates its domain, nor withdraws the published snapshot.
func TestObserveAllEmpty(t *testing.T) {
	e := fittedEncoder(50)
	e.WoE("src_port", 1) // publish
	snap, fp := e.snap.Load(), e.Fingerprint()
	never := func(int) (uint64, bool) {
		t.Fatal("obs called for an empty batch")
		return 0, false
	}
	e.ObserveAll("src_port", 0, never)
	e.ObserveAll("new_domain", 0, never)
	if e.snap.Load() != snap {
		t.Error("empty batch replaced the published snapshot")
	}
	if e.dirty {
		t.Error("empty batch dirtied the encoder")
	}
	if got := e.Domains(); len(got) != 2 {
		t.Errorf("domains = %v, want src_ip and src_port only", got)
	}
	if e.Fingerprint() != fp {
		t.Error("empty batch changed the counts")
	}
}

// TestObserveAllConcurrentReads hammers the lock-free read path while a
// writer observes in batches and refits. Run under -race in CI.
func TestObserveAllConcurrentReads(t *testing.T) {
	e := fittedEncoder(100)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				_ = e.WoE("src_port", uint64(i%200))
				_ = e.WoE("src_ip", uint64(i%200)*7919)
			}
		}()
	}
	for round := 0; round < 200; round++ {
		e.ObserveAll("src_port", 50, func(i int) (uint64, bool) {
			return uint64((round + i) % 100), (round+i)%2 == 0
		})
		if round%10 == 0 {
			e.Fit()
		}
	}
	close(done)
	wg.Wait()
	ref := fittedEncoder(100)
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			ref.Observe("src_port", uint64((round+i)%100), (round+i)%2 == 0)
		}
	}
	if e.Fingerprint() != ref.Fingerprint() {
		t.Error("batched counts differ from one-at-a-time counts")
	}
}
