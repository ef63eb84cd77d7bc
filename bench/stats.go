package main

import (
	"sort"

	"entitlement/internal/stats"
)

// sample is one timed operation: when it started (ns since the timed window
// opened) and how long it took (ns).
type sample struct{ at, dur int64 }

// quantile is stats.Quantile (linear interpolation between closest ranks),
// reading 0 for no data.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return stats.Quantile(vals, q)
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// lowerQuartile is what the re-grant probe reports over its rounds: on a
// shared host interference only ever adds time, and a probe repeated a
// handful of times has no other defence against one slow second.
func lowerQuartile(vals []float64) float64 { return quantile(vals, 0.25) }

func durations(samples []sample) []float64 {
	d := make([]float64, len(samples))
	for i, s := range samples {
		d[i] = float64(s.dur)
	}
	return d
}

// slice cuts the window into equal slices by start time. A stall on a shared
// host lands in one slice, so a median over slices is a number no single
// stall can own.
func slice(samples []sample, window int64, slices int) [][]sample {
	buckets := make([][]sample, slices)
	for _, s := range samples {
		i := int(s.at * int64(slices) / window)
		if i >= slices {
			i = slices - 1
		}
		buckets[i] = append(buckets[i], s)
	}
	return buckets
}

// slicedP99 is the median of the per-slice p99s. Empty slices are skipped.
func slicedP99(samples []sample, window int64, slices int) float64 {
	var p99s []float64
	for _, b := range slice(samples, window, slices) {
		if len(b) > 0 {
			p99s = append(p99s, quantile(durations(b), 0.99))
		}
	}
	return median(p99s)
}

// slicedRate is the median, over the slices, of operations started per
// second.
func slicedRate(samples []sample, window int64, slices int) float64 {
	var rates []float64
	for _, b := range slice(samples, window, slices) {
		rates = append(rates, float64(len(b))/(float64(window)/float64(slices)/1e9))
	}
	return median(rates)
}

// span is one traced interval. Root spans (Parent 0) are whole operations;
// children are the calls the wrappers timed inside them. Times are ns since
// the run's trace epoch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Tag joins spans recorded on another goroutine (the sink's grant.push)
	// to their operation: both carry the request's StartUnix.
	Tag int64 `json:"tag,omitempty"`
}

// selfTime is the span's duration minus the part of it its children cover
// (children clipped to the parent, overlaps counted once).
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := c.Start, c.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, end := int64(0), parent.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			covered += x[1] - end
			end = x[1]
		}
	}
	return parent.End - parent.Start - covered
}
