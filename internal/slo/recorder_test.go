package slo

import (
	"sync"
	"testing"
	"time"
)

func ts(i int) time.Time { return time.Unix(int64(i), 0).UTC() }

// TestRecorderBounded proves the flight recorder's memory bound: recording
// 10× the ring capacity retains exactly the newest capacity samples — the
// ring overwrites, it never grows.
func TestRecorderBounded(t *testing.T) {
	const capacity = 64
	rec := NewRecorder(capacity)
	k := Key{Contract: "C", Segment: "seg", Class: "c4_low"}
	s := rec.Series(k)
	const n = 10 * capacity
	for i := 0; i < n; i++ {
		s.Record(Sample{At: ts(i), Granted: float64(i)})
	}
	if got := s.pos.Load(); got != n {
		t.Fatalf("Recorded() = %d, want %d", got, n)
	}
	snap := s.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot holds %d samples, want exactly ring capacity %d", len(snap), capacity)
	}
	for i, sm := range snap {
		want := float64(n - capacity + i)
		if sm.Granted != want {
			t.Fatalf("snapshot[%d].Granted = %v, want %v (oldest retained must be sample %d)", i, sm.Granted, want, n-capacity)
		}
	}
	if len(s.slots) != capacity {
		t.Fatalf("ring grew to %d slots", len(s.slots))
	}
}

// TestRecorderConcurrent exercises the lock-free write path from many
// goroutines with snapshots racing them; run under -race.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(128)
	k := Key{Contract: "C", Segment: "seg", Class: "c1_low"}
	const writers, perWriter = 8, 500
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	readWG.Add(1)
	go func() { // concurrent reader
		defer readWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, sm := range rec.Series(k).Snapshot() {
					if sm.At.IsZero() {
						t.Error("snapshot returned a zero sample")
						return
					}
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			s := rec.Series(k)
			for i := 0; i < perWriter; i++ {
				s.Record(Sample{At: ts(w*perWriter + i + 1), Used: 1})
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got := rec.Series(k).pos.Load(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}

// TestRecorderSeriesIdentity checks that Series returns a stable handle per
// key and registers distinct keys separately.
func TestRecorderSeriesIdentity(t *testing.T) {
	rec := NewRecorder(16)
	a := rec.Series(Key{Contract: "A", Segment: "s", Class: "c"})
	if rec.Series(Key{Contract: "A", Segment: "s", Class: "c"}) != a {
		t.Fatal("same key returned a different series handle")
	}
	b := rec.Series(Key{Contract: "B", Segment: "s", Class: "c"})
	if a == b {
		t.Fatal("distinct keys shared a series")
	}
	count := 0
	rec.Each(func(*Series) { count++ })
	if count != 2 {
		t.Fatalf("Each visited %d series, want 2", count)
	}
}

// TestDrainDropAccountingRace pins DrainFrom's accounting invariant under a
// lapping writer: delivered + dropped == next - from for EVERY call, because
// both numbers derive from one atomic snapshot of the writer position. The
// historical bug re-loaded the position after reading slots, letting a racing
// writer inflate the drop count past the cursor advance. Two independent
// consumers (modeling the engine drain and an armed black-box flush) each
// verify the invariant per call; run under -race.
func TestDrainDropAccountingRace(t *testing.T) {
	rec := NewRecorder(64) // small ring so writers lap constantly
	k := Key{Contract: "C", Segment: "seg", Class: "c4_low"}
	s := rec.Series(k)
	const writers, perWriter = 4, 20000
	var writeWG, drainWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				s.Record(Sample{At: ts(w*perWriter + i + 1), Used: 1})
			}
		}(w)
	}
	done := make(chan struct{})
	for c := 0; c < 2; c++ {
		drainWG.Add(1)
		go func(c int) {
			defer drainWG.Done()
			var cursor, seen uint64
			for {
				delivered := uint64(0)
				next, dropped := s.DrainFrom(cursor, func(Sample) { delivered++ })
				if next < cursor {
					t.Errorf("consumer %d: cursor moved backwards %d -> %d", c, cursor, next)
					return
				}
				if delivered+dropped != next-cursor {
					t.Errorf("consumer %d: delivered %d + dropped %d != advance %d",
						c, delivered, dropped, next-cursor)
					return
				}
				seen += delivered + dropped
				cursor = next
				select {
				case <-done:
					if final := s.pos.Load(); cursor == final {
						if seen != final {
							t.Errorf("consumer %d: accounted %d samples of %d written", c, seen, final)
						}
						return
					}
				default:
				}
			}
		}(c)
	}
	writeWG.Wait()
	close(done)
	drainWG.Wait()
	if got := s.pos.Load(); got != writers*perWriter {
		t.Fatalf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}
