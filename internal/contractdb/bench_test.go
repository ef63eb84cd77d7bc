package contractdb

import (
	"sort"
	"sync"
	"testing"
	"time"

	"entitlement/internal/contract"
)

// benchStores are the two stores the benchmarks compare: the memory-only one
// and one on a write-ahead log in the benchmark's temp dir (whose filesystem
// decides what an fsync costs: report it with the numbers).
func benchStores(b *testing.B, run func(b *testing.B, s *Store)) {
	b.Run("memory", func(b *testing.B) { run(b, NewStore()) })
	b.Run("durable", func(b *testing.B) {
		s, err := OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		run(b, s)
	})
}

// BenchmarkStorePut: what durability costs a put — one log append and one
// fsync (fsyncs/op is read off the log's own counter).
func BenchmarkStorePut(b *testing.B) {
	benchStores(b, func(b *testing.B, s *Store) {
		c := adsContract(true)
		fsyncs := mLogFsyncs.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(mLogFsyncs.Value()-fsyncs)/float64(b.N), "fsyncs/op")
	})
}

// BenchmarkEntitledRateWhilePutsStream: what a reader feels while a writer
// streams puts back to back. Durable puts hold the log mutex across their
// fsync, which readers never take, so the two columns should agree.
func BenchmarkEntitledRateWhilePutsStream(b *testing.B) {
	benchStores(b, func(b *testing.B, s *Store) {
		if err := s.Put(adsContract(true)); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			other := contract.Contract{NPG: "Logging", SLO: 0.99, Approved: true}
			for {
				select {
				case <-stop:
					return
				default:
					s.Put(other)
				}
			}
		}()
		at := t0.Add(time.Hour)
		took := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := range took {
			start := time.Now()
			if _, found, err := s.EntitledRate("Ads", contract.ClassA, "A", contract.Egress, at); err != nil || !found {
				b.Fatal(found, err)
			}
			took[i] = time.Since(start)
		}
		b.StopTimer()
		close(stop)
		writer.Wait()
		sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
		b.ReportMetric(float64(took[len(took)/2]), "p50-ns")
		b.ReportMetric(float64(took[len(took)*99/100]), "p99-ns")
	})
}
