package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/timeseries"
	"entitlement/internal/topology"
)

// This file lets a deployment feed its own measured traffic into the
// pipeline instead of the synthetic generators: a DemandSet round-trips
// through a simple CSV format, one row per sample:
//
//	npg,class,src,dst,offset_seconds,bits_per_second
//
// Rows for one flow must appear in time order with a uniform interval; the
// header row is optional. WriteCSV emits the same format.

// ReadCSV parses a demand set from r. start anchors sample offsets.
func ReadCSV(r io.Reader, start time.Time) (*DemandSet, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 6
	type flowKey struct {
		npg      contract.NPG
		class    contract.Class
		src, dst topology.Region
	}
	type flowAcc struct {
		offsets []float64
		values  []float64
	}
	acc := make(map[flowKey]*flowAcc)
	var order []flowKey
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line+1, err)
		}
		line++
		if line == 1 && rec[0] == "npg" {
			continue // header
		}
		class, err := contract.ParseClass(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d: %w", line, err)
		}
		offset, err := strconv.ParseFloat(rec[4], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d offset: %w", line, err)
		}
		rate, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: csv line %d rate: %w", line, err)
		}
		if rate < 0 {
			return nil, fmt.Errorf("trace: csv line %d: negative rate %v", line, rate)
		}
		k := flowKey{contract.NPG(rec[0]), class, topology.Region(rec[2]), topology.Region(rec[3])}
		a := acc[k]
		if a == nil {
			a = &flowAcc{}
			acc[k] = a
			order = append(order, k)
		}
		a.offsets = append(a.offsets, offset)
		a.values = append(a.values, rate)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("trace: csv contains no samples")
	}
	ds := &DemandSet{}
	for _, k := range order {
		a := acc[k]
		if len(a.values) < 2 {
			return nil, fmt.Errorf("trace: flow %v has %d samples, need >= 2 to infer the step", k, len(a.values))
		}
		step := time.Duration((a.offsets[1] - a.offsets[0]) * float64(time.Second))
		if step <= 0 {
			return nil, fmt.Errorf("trace: flow %v has non-increasing offsets", k)
		}
		for i := 1; i < len(a.offsets); i++ {
			want := a.offsets[0] + float64(i)*step.Seconds()
			if diff := a.offsets[i] - want; diff > 1e-6 || diff < -1e-6 {
				return nil, fmt.Errorf("trace: flow %v has non-uniform sampling at row %d", k, i)
			}
		}
		ds.Flows = append(ds.Flows, FlowSeries{
			NPG: k.npg, Class: k.class, Src: k.src, Dst: k.dst,
			Series: timeseries.New(start.Add(time.Duration(a.offsets[0])*time.Second), step, a.values),
		})
		if ds.Step == 0 {
			ds.Step = step
			ds.Len = len(a.values)
		}
	}
	return ds, nil
}
