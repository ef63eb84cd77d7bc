package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanSumMinMax(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Mean(xs); !almostEqual(got, 3.875, 1e-12) {
		t.Errorf("Mean = %v, want 3.875", got)
	}
	if got := Sum(xs); got != 31 {
		t.Errorf("Sum = %v, want 31", got)
	}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Out-of-range q values clamp.
	if got := Quantile(xs, -1); got != 1 {
		t.Errorf("Quantile(-1) = %v, want 1", got)
	}
	if got := Quantile(xs, 2); got != 5 {
		t.Errorf("Quantile(2) = %v, want 5", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileSingleElement(t *testing.T) {
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("Quantile single = %v, want 7", got)
	}
}

func TestSMAPE(t *testing.T) {
	a := []float64{100, 100}
	f := []float64{100, 50}
	got, err := SMAPE(a, f)
	if err != nil {
		t.Fatal(err)
	}
	// Second term: |100-50|/75 = 2/3; mean = 1/3.
	if !almostEqual(got, 1.0/3.0, 1e-12) {
		t.Errorf("SMAPE = %v, want 1/3", got)
	}
}

func TestSMAPEErrors(t *testing.T) {
	if _, err := SMAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not detected")
	}
	if _, err := SMAPE(nil, nil); err != ErrEmpty {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

func TestSMAPEZeroPairs(t *testing.T) {
	got, err := SMAPE([]float64{0, 10}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("SMAPE identical series = %v, want 0", got)
	}
}

// Property: sMAPE is always within [0, 2] for non-negative series.
func TestSMAPERangeProperty(t *testing.T) {
	f := func(pairs []struct{ A, F uint16 }) bool {
		if len(pairs) == 0 {
			return true
		}
		a := make([]float64, len(pairs))
		fc := make([]float64, len(pairs))
		for i, p := range pairs {
			a[i] = float64(p.A)
			fc[i] = float64(p.F)
		}
		got, err := SMAPE(a, fc)
		return err == nil && got >= 0 && got <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sMAPE is symmetric in its arguments.
func TestSMAPESymmetryProperty(t *testing.T) {
	f := func(pairs []struct{ A, F uint16 }) bool {
		if len(pairs) == 0 {
			return true
		}
		a := make([]float64, len(pairs))
		fc := make([]float64, len(pairs))
		for i, p := range pairs {
			a[i] = float64(p.A)
			fc[i] = float64(p.F)
		}
		x, _ := SMAPE(a, fc)
		y, _ := SMAPE(fc, a)
		return almostEqual(x, y, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.At(2.5); got != 0.5 {
		t.Errorf("At(2.5) = %v, want 0.5", got)
	}
	if got := c.Quantile(0.5); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Quantile(0.5) = %v, want 2.5", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if got := c.At(1); got != 0 {
		t.Errorf("empty CDF At = %v, want 0", got)
	}
	xs, ps := c.Points(10)
	if xs != nil || ps != nil {
		t.Error("empty CDF Points should return nil")
	}
}

// Property: CDF.At is monotonically non-decreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(sample []float64, probes []float64) bool {
		if len(sample) == 0 || len(probes) < 2 {
			return true
		}
		c := NewCDF(sample)
		for i := range probes {
			for j := range probes {
				if probes[i] <= probes[j] && c.At(probes[i]) > c.At(probes[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	xs, ps := c.Points(5)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("Points returned %d/%d entries", len(xs), len(ps))
	}
	if ps[len(ps)-1] != 1 {
		t.Errorf("last CDF point = %v, want 1", ps[len(ps)-1])
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ps[i] < ps[i-1] {
			t.Errorf("Points not monotone at %d", i)
		}
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range []int{1, 2, 5, 20} {
		for _, alpha := range []float64{0.3, 1, 5} {
			xs := Dirichlet(rng, k, alpha)
			if len(xs) != k {
				t.Fatalf("Dirichlet(%d) returned %d values", k, len(xs))
			}
			sum := Sum(xs)
			if !almostEqual(sum, 1, 1e-9) {
				t.Errorf("Dirichlet(%d, %v) sum = %v", k, alpha, sum)
			}
			for _, x := range xs {
				if x < 0 {
					t.Errorf("negative Dirichlet component %v", x)
				}
			}
		}
	}
}

func TestDirichletZeroDims(t *testing.T) {
	if got := Dirichlet(rand.New(rand.NewSource(1)), 0, 1); got != nil {
		t.Errorf("Dirichlet(0) = %v, want nil", got)
	}
}

func TestDirichletUniformMean(t *testing.T) {
	// With alpha=1 each component has expectation 1/k.
	rng := rand.New(rand.NewSource(7))
	const k, n = 4, 4000
	sums := make([]float64, k)
	for i := 0; i < n; i++ {
		xs := Dirichlet(rng, k, 1)
		for j, x := range xs {
			sums[j] += x
		}
	}
	for j := range sums {
		mean := sums[j] / n
		if math.Abs(mean-0.25) > 0.02 {
			t.Errorf("component %d mean = %v, want ~0.25", j, mean)
		}
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(0.5, 0, 1); got != 0.5 {
		t.Errorf("Clamp mid = %v", got)
	}
}
