package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"entitlement/internal/stats"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSeriesBasics(t *testing.T) {
	s := New(t0, time.Hour, []float64{1, 2, 3})
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.TimeAt(2); !got.Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
	if got := s.End(); !got.Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("End = %v", got)
	}
}

func TestNewPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero step did not panic")
		}
	}()
	New(t0, 0, nil)
}

func TestCloneIndependence(t *testing.T) {
	s := New(t0, time.Hour, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSlice(t *testing.T) {
	s := New(t0, time.Hour, []float64{0, 1, 2, 3, 4})
	sub := s.Slice(1, 4)
	if sub.Len() != 3 || sub.Values[0] != 1 {
		t.Errorf("Slice = %+v", sub)
	}
	if !sub.Start.Equal(t0.Add(time.Hour)) {
		t.Errorf("Slice start = %v", sub.Start)
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	s := New(t0, time.Hour, []float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad slice did not panic")
		}
	}()
	s.Slice(0, 5)
}

func TestAdd(t *testing.T) {
	a := New(t0, time.Hour, []float64{1, 2})
	b := New(t0, time.Hour, []float64{10, 20})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Values[0] != 11 || sum.Values[1] != 22 {
		t.Errorf("Add = %v", sum.Values)
	}
	// Misaligned.
	c := New(t0.Add(time.Minute), time.Hour, []float64{1, 2})
	if _, err := a.Add(c); err == nil {
		t.Error("misaligned Add did not error")
	}
}

func TestResampleMean(t *testing.T) {
	s := New(t0, time.Hour, []float64{1, 3, 5, 7, 9})
	r, err := s.Resample(2*time.Hour, stats.Mean)
	if err != nil {
		t.Fatal(err)
	}
	// Two complete buckets; the trailing partial sample is dropped.
	if r.Len() != 2 || r.Values[0] != 2 || r.Values[1] != 6 {
		t.Errorf("Resample = %v", r.Values)
	}
	if r.Step != 2*time.Hour {
		t.Errorf("Step = %v", r.Step)
	}
}

func TestResampleBadWidth(t *testing.T) {
	s := New(t0, time.Hour, []float64{1})
	if _, err := s.Resample(90*time.Minute, stats.Mean); err == nil {
		t.Error("non-multiple width did not error")
	}
}

func TestRollingMean(t *testing.T) {
	s := New(t0, time.Hour, []float64{2, 4, 6, 8})
	r := s.RollingMean(2)
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if !almostEqual(r.Values[i], want[i], 1e-12) {
			t.Errorf("RollingMean[%d] = %v, want %v", i, r.Values[i], want[i])
		}
	}
}

func TestDailyMaxOfRollingMean(t *testing.T) {
	// Two days of hourly samples: day 1 constant 10, day 2 has a 6h burst
	// of 100 — the 6h rolling mean should hit 100 only on day 2.
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = 10
	}
	for i := 30; i < 36; i++ {
		vals[i] = 100
	}
	s := New(t0, time.Hour, vals)
	sli, err := s.DailyMaxOfRollingMean(6 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if sli.Len() != 2 {
		t.Fatalf("SLI length = %d", sli.Len())
	}
	if !almostEqual(sli.Values[0], 10, 1e-9) {
		t.Errorf("day1 SLI = %v, want 10", sli.Values[0])
	}
	if !almostEqual(sli.Values[1], 100, 1e-9) {
		t.Errorf("day2 SLI = %v, want 100", sli.Values[1])
	}
}

func TestDailyQuantile(t *testing.T) {
	vals := make([]float64, 24)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := New(t0, time.Hour, vals)
	q, err := s.DailyQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 || !almostEqual(q.Values[0], 11.5, 1e-12) {
		t.Errorf("DailyQuantile = %v", q.Values)
	}
}

// Property: RollingMean with window 1 is the identity.
func TestRollingMeanIdentityProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		s := New(t0, time.Minute, vals)
		r := s.RollingMean(1)
		for i := range vals {
			if r.Values[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
