package trace

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	specs := DefaultOntology(0)
	original, err := GenerateDemands(specs, MatrixOptions{
		Regions: regions(3), TotalRate: 1e12, Days: 1, Step: time.Hour, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, original); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadCSV(&buf, DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Flows) != len(original.Flows) {
		t.Fatalf("flows = %d, want %d", len(parsed.Flows), len(original.Flows))
	}
	for i := range original.Flows {
		a, b := &original.Flows[i], &parsed.Flows[i]
		if a.NPG != b.NPG || a.Class != b.Class || a.Src != b.Src || a.Dst != b.Dst {
			t.Fatalf("flow %d identity differs: %v vs %v", i, a, b)
		}
		if a.Series.Step != b.Series.Step || a.Series.Len() != b.Series.Len() {
			t.Fatalf("flow %d shape differs", i)
		}
		for j := range a.Series.Values {
			if a.Series.Values[j] != b.Series.Values[j] {
				t.Fatalf("flow %d sample %d differs: %v vs %v",
					i, j, a.Series.Values[j], b.Series.Values[j])
			}
		}
	}
}

func TestReadCSVBasic(t *testing.T) {
	in := `npg,class,src,dst,offset_seconds,bits_per_second
Ads,c2_low,A,B,0,100
Ads,c2_low,A,B,3600,200
Ads,c2_low,A,B,7200,300
`
	ds, err := ReadCSV(strings.NewReader(in), DefaultStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Flows) != 1 {
		t.Fatalf("flows = %d", len(ds.Flows))
	}
	f := ds.Flows[0]
	if f.NPG != "Ads" || f.Src != "A" || f.Dst != "B" {
		t.Errorf("identity = %+v", f)
	}
	if f.Series.Step != time.Hour || f.Series.Len() != 3 {
		t.Errorf("shape: step=%v len=%d", f.Series.Step, f.Series.Len())
	}
	if f.Series.Values[2] != 300 {
		t.Errorf("values = %v", f.Series.Values)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad class":      "Ads,c9_low,A,B,0,100\nAds,c9_low,A,B,60,100\n",
		"bad offset":     "Ads,c2_low,A,B,zero,100\nAds,c2_low,A,B,60,100\n",
		"bad rate":       "Ads,c2_low,A,B,0,abc\nAds,c2_low,A,B,60,100\n",
		"negative rate":  "Ads,c2_low,A,B,0,-5\nAds,c2_low,A,B,60,100\n",
		"single sample":  "Ads,c2_low,A,B,0,100\n",
		"non-uniform":    "Ads,c2_low,A,B,0,100\nAds,c2_low,A,B,60,100\nAds,c2_low,A,B,200,100\n",
		"non-increasing": "Ads,c2_low,A,B,60,100\nAds,c2_low,A,B,60,100\n",
		"wrong fields":   "Ads,c2_low,A,B,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), DefaultStart); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// WriteCSV emits the demand set in the ReadCSV format, with a header: the
// other half of the ReadCSV round trip.
func WriteCSV(w io.Writer, ds *DemandSet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"npg", "class", "src", "dst", "offset_seconds", "bits_per_second"}); err != nil {
		return err
	}
	for i := range ds.Flows {
		f := &ds.Flows[i]
		base := f.Series.Start.Sub(ds.Flows[0].Series.Start).Seconds()
		for j, v := range f.Series.Values {
			rec := []string{
				string(f.NPG), f.Class.String(), string(f.Src), string(f.Dst),
				strconv.FormatFloat(base+float64(j)*f.Series.Step.Seconds(), 'f', -1, 64),
				strconv.FormatFloat(v, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
