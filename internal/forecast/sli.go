package forecast

import (
	"errors"
	"fmt"
	"time"

	"entitlement/internal/stats"
	"entitlement/internal/timeseries"
)

// SLIKind selects how raw traffic reduces to the daily SLI input — "different
// services need different types of daily data to feed into the model, e.g.
// daily max average of 6 hours for storage services, and daily p99 for ads"
// (§4.1).
type SLIKind int

// SLI reductions.
const (
	// SLIMaxAvg6h: per day, the maximum 6-hour rolling average (storage).
	SLIMaxAvg6h SLIKind = iota
	// SLIDailyP99: per day, the 99th percentile sample (ads).
	SLIDailyP99
	// SLIDailyMean: per day, the mean (generic services).
	SLIDailyMean
)

// String names the reduction.
func (k SLIKind) String() string {
	switch k {
	case SLIMaxAvg6h:
		return "max-avg-6h"
	case SLIDailyP99:
		return "daily-p99"
	default:
		return "daily-mean"
	}
}

// DailySLI reduces a raw (sub-daily) traffic series to one SLI sample per day.
func DailySLI(s *timeseries.Series, kind SLIKind) (*timeseries.Series, error) {
	switch kind {
	case SLIMaxAvg6h:
		return s.DailyMaxOfRollingMean(6 * time.Hour)
	case SLIDailyP99:
		return s.DailyQuantile(0.99)
	case SLIDailyMean:
		return s.Resample(24*time.Hour, stats.Mean)
	default:
		return nil, fmt.Errorf("forecast: unknown SLI kind %d", int(kind))
	}
}

// QuarterDays is the entitlement period length: "the SLI metric is defined
// as the bandwidth usage of three consecutive months" (§4.1).
const QuarterDays = 90

// Result is a quarterly demand forecast.
type Result struct {
	// Daily is the 90-day daily SLI forecast.
	Daily *timeseries.Series
	// Monthly holds the per-month demand: the p95 of each month's daily
	// forecasts (a peak-oriented summary that tolerates outliers).
	Monthly [3]float64
	// Quarter is the demand to request for the whole period: the maximum
	// monthly value (the entitlement must cover the peak month).
	Quarter float64
}

// ForecastQuarter fits the organic model to the daily SLI history and
// forecasts the next quarter (§4.1: "running this model for the next three
// months generates the final forecast demand for the next quarter").
func ForecastQuarter(dailySLI *timeseries.Series, opts ProphetOptions) (*Result, error) {
	if dailySLI.Step != 24*time.Hour {
		return nil, errors.New("forecast: ForecastQuarter expects a daily series")
	}
	m, err := FitProphet(dailySLI, opts)
	if err != nil {
		return nil, err
	}
	daily := m.Forecast(QuarterDays)
	res := &Result{Daily: daily}
	for month := 0; month < 3; month++ {
		lo, hi := month*30, (month+1)*30
		res.Monthly[month] = stats.Quantile(daily.Values[lo:hi], 0.95)
		if res.Monthly[month] > res.Quarter {
			res.Quarter = res.Monthly[month]
		}
	}
	return res, nil
}

// AdjustInorganic applies an inorganic-change model's monthly forecasts on
// top of the organic result: where the tree model (fed with planned changes)
// predicts a higher month than the organic model, the higher value wins.
// This mirrors §4.1's two-regressor design, where organic output feeds the
// tree model alongside inorganic factors.
func (r *Result) AdjustInorganic(monthly []float64) {
	for i := 0; i < 3 && i < len(monthly); i++ {
		if monthly[i] > r.Monthly[i] {
			r.Monthly[i] = monthly[i]
		}
		if r.Monthly[i] > r.Quarter {
			r.Quarter = r.Monthly[i]
		}
	}
}

// Accuracy holds per-percentile sMAPE scores for one service — the paper
// evaluates "the forecast result for the 50th, 75th, and 90th percentile for
// each service" (§7.1).
type Accuracy struct {
	P50, P75, P90 float64
}

// EvaluateAccuracy backtests the organic model on a raw traffic series: the
// last testDays days are held out; for each traffic percentile (daily p50,
// p75, p90 series) the model trains on the prefix, forecasts the holdout,
// and scores sMAPE against the actuals.
func EvaluateAccuracy(raw *timeseries.Series, testDays int, opts ProphetOptions) (Accuracy, error) {
	var acc Accuracy
	if testDays <= 0 {
		return acc, errors.New("forecast: testDays must be positive")
	}
	scores := make([]float64, 0, 3)
	for _, q := range []float64{0.50, 0.75, 0.90} {
		daily, err := raw.DailyQuantile(q)
		if err != nil {
			return acc, err
		}
		if daily.Len() <= testDays {
			return acc, fmt.Errorf("forecast: series too short (%d days) for %d test days", daily.Len(), testDays)
		}
		train := daily.Slice(0, daily.Len()-testDays)
		test := daily.Slice(daily.Len()-testDays, daily.Len())
		m, err := FitProphet(train, opts)
		if err != nil {
			return acc, err
		}
		pred := m.Forecast(testDays)
		s, err := stats.SMAPE(test.Values, pred.Values)
		if err != nil {
			return acc, err
		}
		scores = append(scores, s)
	}
	acc.P50, acc.P75, acc.P90 = scores[0], scores[1], scores[2]
	return acc, nil
}
