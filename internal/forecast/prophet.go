// Package forecast implements the demand-forecast stage of §4.1: the SLI
// metric, a Prophet-lite additive time-series model for organic changes
// (y(t) = trend(t) + seasonality(t) + holidays(t) + ε), a gradient-boosted
// tree model with quantile loss for inorganic changes, and the sMAPE
// accuracy evaluation of §7.1.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"time"

	"entitlement/internal/linalg"
	"entitlement/internal/timeseries"
)

// ProphetOptions configures the Prophet-lite organic model.
type ProphetOptions struct {
	// Changepoints is the number of potential piecewise-linear trend
	// changepoints, spread uniformly over the first 80% of the history
	// (matching Prophet's default placement). Default 8.
	Changepoints int
	// WeeklyOrder is the Fourier order of the weekly seasonality. Default 3.
	// Zero disables weekly seasonality.
	WeeklyOrder int
	// Holidays are day offsets (from series start) carrying a shared
	// holiday effect: one indicator column is active on every listed day
	// (mod 365), so future holidays inherit the effect learned from past
	// ones — the holidays(t) component of §4.1's decomposition.
	Holidays []int
	// Ridge is the L2 penalty applied when fitting (the target is
	// normalized first, so the penalty is scale-free). Default 0.1.
	Ridge float64
}

func (o *ProphetOptions) withDefaults() ProphetOptions {
	out := *o
	if out.Changepoints == 0 {
		out.Changepoints = 8
	}
	if out.WeeklyOrder == 0 {
		out.WeeklyOrder = 3
	}
	if out.Ridge == 0 {
		out.Ridge = 0.1
	}
	return out
}

// Prophet is a fitted Prophet-lite model over a daily series.
type Prophet struct {
	opts         ProphetOptions
	start        time.Time
	step         time.Duration
	n            int          // training length in samples
	changepoints []float64    // normalized [0,1] positions
	holidays     map[int]bool // holiday day offsets (mod 365)
	weights      []float64
	yMean, yStd  float64 // target normalization applied before the ridge fit
}

// FitProphet fits the additive model to a daily (or coarser) series.
// The series must have at least 2×(model dimension) samples.
func FitProphet(s *timeseries.Series, opts ProphetOptions) (*Prophet, error) {
	o := opts.withDefaults()
	if s.Step < time.Hour {
		return nil, errors.New("forecast: Prophet expects daily-granularity series")
	}
	m := &Prophet{opts: o, start: s.Start, step: s.Step, n: s.Len()}
	m.changepoints = make([]float64, o.Changepoints)
	for i := range m.changepoints {
		m.changepoints[i] = 0.8 * float64(i+1) / float64(o.Changepoints+1)
	}
	m.holidays = make(map[int]bool)
	for _, h := range o.Holidays {
		m.holidays[((h%365)+365)%365] = true
	}
	dim := m.dim()
	if s.Len() < 2*dim {
		return nil, fmt.Errorf("forecast: need >= %d samples to fit, got %d", 2*dim, s.Len())
	}
	rows := make([][]float64, s.Len())
	for i := range rows {
		rows[i] = m.features(i)
	}
	x := linalg.FromRows(rows)
	// Normalize the target so the ridge penalty is scale-free: traffic
	// volumes span Gbps to Tbps and a fixed lambda would otherwise flatten
	// large services' fits.
	mean, std := 0.0, 0.0
	for _, v := range s.Values {
		mean += v
	}
	mean /= float64(s.Len())
	for _, v := range s.Values {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(s.Len()))
	if std == 0 {
		std = 1
	}
	norm := make([]float64, s.Len())
	for i, v := range s.Values {
		norm[i] = (v - mean) / std
	}
	w, err := linalg.Ridge(x, norm, o.Ridge)
	if err != nil {
		return nil, err
	}
	m.weights = w
	m.yMean, m.yStd = mean, std
	return m, nil
}

// dim returns the design-matrix width.
func (m *Prophet) dim() int {
	d := 2 + len(m.changepoints) + 2*m.opts.WeeklyOrder
	if len(m.holidays) > 0 {
		d++
	}
	return d
}

// features builds the design row for sample index i (which may be beyond the
// training range for forecasting).
func (m *Prophet) features(i int) []float64 {
	row := make([]float64, 0, m.dim())
	// Normalized time over the training window; extrapolates past 1.
	t := float64(i) / float64(maxInt(m.n-1, 1))
	row = append(row, 1, t)
	for _, cp := range m.changepoints {
		if t > cp {
			row = append(row, t-cp)
		} else {
			row = append(row, 0)
		}
	}
	day := float64(i) * m.step.Hours() / 24
	for k := 1; k <= m.opts.WeeklyOrder; k++ {
		row = append(row,
			math.Sin(2*math.Pi*float64(k)*day/7),
			math.Cos(2*math.Pi*float64(k)*day/7))
	}
	if len(m.holidays) > 0 {
		ind := 0.0
		if m.holidays[int(day)%365] {
			ind = 1
		}
		row = append(row, ind)
	}
	return row
}

// PredictAt returns the model value at sample index i (0 = first training
// sample; indexes >= the training length forecast the future).
func (m *Prophet) PredictAt(i int) float64 {
	return linalg.Dot(m.features(i), m.weights)*m.yStd + m.yMean
}

// Forecast returns the next horizon samples after the training window.
func (m *Prophet) Forecast(horizon int) *timeseries.Series {
	vals := make([]float64, horizon)
	for i := range vals {
		v := m.PredictAt(m.n + i)
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	return timeseries.New(m.start.Add(time.Duration(m.n)*m.step), m.step, vals)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
