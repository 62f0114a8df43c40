package obs

import (
	"sync"
	"testing"
)

// TestRingOrderAndEviction pins the ring contract: Seq is 1-based and
// monotonic, Events returns oldest-first, and the bound evicts the oldest
// entries while Total/Dropped account exactly.
func TestRingOrderAndEviction(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: "k", ID: uint64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		wantID := uint64(6 + i)
		if ev.ID != wantID || ev.Seq != wantID+1 {
			t.Fatalf("event %d = {ID:%d Seq:%d}, want {ID:%d Seq:%d}", i, ev.ID, ev.Seq, wantID, wantID+1)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 || r.Len() != 4 {
		t.Fatalf("total/dropped/len = %d/%d/%d, want 10/6/4", r.Total(), r.Dropped(), r.Len())
	}
}

// TestRingConcurrent records from many goroutines while snapshotting;
// -race plus the exact total is the safety proof. Cross-goroutine order
// is unspecified, but Seq must still be a permutation-free 1..N stamp.
func TestRingConcurrent(t *testing.T) {
	const writers, perWriter = 8, 2_000
	r := NewRing(writers * perWriter) // no eviction: every event kept
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Events()
				_ = r.Total()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Event{Kind: "c"})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if r.Total() != writers*perWriter || r.Dropped() != 0 {
		t.Fatalf("total/dropped = %d/%d, want %d/0", r.Total(), r.Dropped(), writers*perWriter)
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has Seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}
