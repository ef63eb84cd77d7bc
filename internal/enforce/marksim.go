package enforce

import (
	"fmt"
	"math/rand"
)

// MarkSimOptions configures the §7.4 marking-convergence simulation:
// "assuming a total traffic rate of 10Tbps and an entitled rate of 5Tbps, we
// gradually simulate network congestion with a loss rate of 0%, 12.5%, 25%,
// 50% and 100% of the non-conforming traffic".
type MarkSimOptions struct {
	Demand   float64 // steady offered demand, bits/s (paper: 10 Tbps)
	Entitled float64 // entitled rate, bits/s (paper: 5 Tbps)
	// Loss is the fraction of non-conforming traffic the network drops.
	Loss       float64
	Iterations int
	Meter      Meter
	// DemandJitter adds multiplicative noise (stddev) to the demand per
	// iteration; zero for the paper's idealized runs.
	DemandJitter float64
	Seed         int64
}

// MarkSimPoint is one iteration's outcome.
type MarkSimPoint struct {
	Iteration int
	// ConformRatio decided by the meter this iteration.
	ConformRatio float64
	// ConformRate is the instantaneous conforming traffic rate sent — the
	// Figures 23/25 y-axis.
	ConformRate float64
	// ObservedTotal is the aggregate rate the agents will observe next
	// cycle (conforming plus surviving non-conforming traffic).
	ObservedTotal float64
	// Average is the running mean of ConformRate — the Figure 24 y-axis.
	Average float64
}

// SimulateMarking runs the closed loop between the metering algorithm and a
// lossy network. Each iteration the meter picks a ConformRatio from the
// previous cycle's observations; the service sends Demand split by the
// ratio; the network drops Loss of the non-conforming part; survivors form
// the next observation. Dropped traffic vanishing from the next cycle's
// TotalRate is exactly the feedback that breaks the stateless meter (§7.4).
func SimulateMarking(opts MarkSimOptions) ([]MarkSimPoint, error) {
	if opts.Demand <= 0 || opts.Entitled <= 0 {
		return nil, fmt.Errorf("enforce: marking sim needs positive rates, got demand=%v entitled=%v", opts.Demand, opts.Entitled)
	}
	if opts.Loss < 0 || opts.Loss > 1 {
		return nil, fmt.Errorf("enforce: loss %v out of [0,1]", opts.Loss)
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 50
	}
	if opts.Meter == nil {
		opts.Meter = NewStateful()
	}
	opts.Meter.Reset()
	rng := rand.New(rand.NewSource(opts.Seed))

	points := make([]MarkSimPoint, 0, opts.Iterations)
	// Before enforcement starts all traffic is conforming.
	obsTotal, obsConform := opts.Demand, opts.Demand
	sum := 0.0
	for t := 1; t <= opts.Iterations; t++ {
		demand := opts.Demand
		if opts.DemandJitter > 0 {
			demand *= 1 + opts.DemandJitter*rng.NormFloat64()
			if demand < 0 {
				demand = 0
			}
		}
		ratio := opts.Meter.ConformRatio(opts.Entitled, obsTotal, obsConform)
		conformSent := demand * ratio
		nonConfSent := demand * (1 - ratio)
		survived := nonConfSent * (1 - opts.Loss)

		sum += conformSent
		points = append(points, MarkSimPoint{
			Iteration:     t,
			ConformRatio:  ratio,
			ConformRate:   conformSent,
			ObservedTotal: conformSent + survived,
			Average:       sum / float64(t),
		})
		obsConform = conformSent
		obsTotal = conformSent + survived
	}
	return points, nil
}
