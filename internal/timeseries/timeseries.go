// Package timeseries provides the time-series types and transforms consumed
// by the demand-forecast pipeline (§4.1): uniformly sampled series,
// resampling, rolling windows (the storage SLI uses a daily max of 6-hour
// averages), and daily aggregation.
package timeseries

import (
	"errors"
	"fmt"
	"time"

	"entitlement/internal/stats"
)

// Series is a uniformly sampled time series: Values[i] is the observation at
// Start + i·Step.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// New creates a series with the given origin, sampling interval and values.
func New(start time.Time, step time.Duration, values []float64) *Series {
	if step <= 0 {
		panic("timeseries: non-positive step")
	}
	return &Series{Start: start, Step: step, Values: values}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time { return s.Start.Add(time.Duration(i) * s.Step) }

// End returns the timestamp just past the last sample.
func (s *Series) End() time.Time { return s.TimeAt(len(s.Values)) }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	v := make([]float64, len(s.Values))
	copy(v, s.Values)
	return &Series{Start: s.Start, Step: s.Step, Values: v}
}

// Slice returns the sub-series covering samples [i, j).
func (s *Series) Slice(i, j int) *Series {
	if i < 0 || j > len(s.Values) || i > j {
		panic(fmt.Sprintf("timeseries: slice [%d,%d) out of range [0,%d)", i, j, len(s.Values)))
	}
	return &Series{Start: s.TimeAt(i), Step: s.Step, Values: s.Values[i:j]}
}

// Add returns a new series with the pointwise sum of s and o. The series
// must be aligned (same start, step, and length).
func (s *Series) Add(o *Series) (*Series, error) {
	if err := s.checkAligned(o); err != nil {
		return nil, err
	}
	out := s.Clone()
	for i, v := range o.Values {
		out.Values[i] += v
	}
	return out, nil
}

func (s *Series) checkAligned(o *Series) error {
	if !s.Start.Equal(o.Start) || s.Step != o.Step || len(s.Values) != len(o.Values) {
		return errors.New("timeseries: series not aligned")
	}
	return nil
}

// Resample aggregates the series into buckets of the given width using agg
// (e.g. Mean or Max). width must be a positive multiple of the step.
func (s *Series) Resample(width time.Duration, agg func([]float64) float64) (*Series, error) {
	if width <= 0 || width%s.Step != 0 {
		return nil, fmt.Errorf("timeseries: resample width %v not a multiple of step %v", width, s.Step)
	}
	per := int(width / s.Step)
	n := len(s.Values) / per
	out := make([]float64, 0, n)
	for i := 0; i+per <= len(s.Values); i += per {
		out = append(out, agg(s.Values[i:i+per]))
	}
	return &Series{Start: s.Start, Step: width, Values: out}, nil
}

// RollingMean returns a series of trailing window means; sample i of the
// result averages the window ending at sample i (shorter at the start).
func (s *Series) RollingMean(window int) *Series {
	if window <= 0 {
		panic("timeseries: non-positive window")
	}
	out := make([]float64, len(s.Values))
	sum := 0.0
	for i, v := range s.Values {
		sum += v
		if i >= window {
			sum -= s.Values[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return &Series{Start: s.Start, Step: s.Step, Values: out}
}

// DailyMaxOfRollingMean computes, per day, the maximum of the trailing
// rolling mean over the given window — the paper's SLI input for storage
// services ("daily max average of 6 hours", §4.1). The result is one sample
// per complete day.
func (s *Series) DailyMaxOfRollingMean(window time.Duration) (*Series, error) {
	if window%s.Step != 0 {
		return nil, fmt.Errorf("timeseries: window %v not a multiple of step %v", window, s.Step)
	}
	rolled := s.RollingMean(int(window / s.Step))
	return rolled.Resample(24*time.Hour, stats.Max)
}

// DailyQuantile computes one sample per complete day holding the day's q-th
// quantile — the paper's SLI input for the ads service ("daily p99", §4.1).
func (s *Series) DailyQuantile(q float64) (*Series, error) {
	return s.Resample(24*time.Hour, func(xs []float64) float64 {
		return stats.Quantile(xs, q)
	})
}
