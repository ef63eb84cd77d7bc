package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every workload, how each end-to-end metric and the
// share of failed operations moved from a to b, and reports whether the two
// files agree: every metric within its bound (as a share of a's value, in
// either direction), no more failures in b than in a, and every workload and
// metric of one file present in the other.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	var spec benchSpec
	var a, b resultFile
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	if len(spec.EndToEnd) == 0 {
		return false, fmt.Errorf("%s names no end-to-end metric", specPath)
	}
	if len(a.Results) == 0 {
		return false, fmt.Errorf("%s holds no results", aPath)
	}
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ:\n  %+v\n  %+v\n", a.Env, b.Env)
	}
	other := make(map[string]*report)
	for _, r := range b.Results {
		other[r.Workload] = r
	}
	ok := true
	for _, ra := range a.Results {
		rb := other[ra.Workload]
		delete(other, ra.Workload)
		if rb == nil {
			fmt.Fprintf(w, "%-13s only in %s  DIFFERS\n", ra.Workload, aPath)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, inA := ra.Metrics[m.Name]
			mb, inB := rb.Metrics[m.Name]
			if !inA || !inB {
				fmt.Fprintf(w, "%-13s %-16s in %s: %v, in %s: %v  DIFFERS\n", ra.Workload, m.Name, aPath, inA, bPath, inB)
				ok = false
				continue
			}
			change := (mb.Value - ma.Value) / ma.Value
			verdict := "ok"
			if math.Abs(change) > m.Bound || math.IsNaN(change) {
				verdict, ok = "DIFFERS", false
				if (change < 0) == (m.Better == "lower") {
					verdict = "DIFFERS (better)"
				}
			}
			fmt.Fprintf(w, "%-13s %-16s %14.4f -> %14.4f %s  %+6.1f%% (bound %.0f%%)  %s\n",
				ra.Workload, m.Name, ma.Value, mb.Value, ma.Unit, change*100, m.Bound*100, verdict)
		}
		// Failures are expected to be none: any rise in their share differs.
		fa, fb := failShare(ra), failShare(rb)
		verdict := "ok"
		if fb > fa || math.IsNaN(fa) || math.IsNaN(fb) {
			verdict, ok = "DIFFERS", false
		}
		fmt.Fprintf(w, "%-13s %-16s %14.6f -> %14.6f (failed / attempted)  %s\n", ra.Workload, "fail_share", fa, fb, verdict)
	}
	for name := range other {
		fmt.Fprintf(w, "%-13s only in %s  DIFFERS\n", name, bPath)
		ok = false
	}
	return ok, nil
}

func failShare(r *report) float64 { return float64(r.Failed) / float64(r.Attempted) }
