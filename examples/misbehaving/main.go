// Misbehaving-service example: reproduces the §2.2 incident that motivated
// the entitlement program (a buggy video-client release spiking traffic 50%
// above prediction within minutes), then shows how entitlement enforcement
// would have contained it.
//
//	go run ./examples/misbehaving
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"entitlement/internal/contract"
	"entitlement/internal/enforce"
	"entitlement/internal/netsim"
	"entitlement/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// --- The world before entitlement. ------------------------------------
	opts := netsim.DefaultIncidentOptions()
	rep, err := netsim.RunIncident(opts)
	if err != nil {
		return err
	}
	peak := stats.Max(rep.CulpritRate)
	fmt.Fprintln(w, "incident: buggy release multiplies the video service's traffic")
	fmt.Fprintf(w, "  predicted volume: %.2f Tbps, observed peak: %.2f Tbps (+%.0f%%)\n",
		opts.CulpritRate/1e12, peak/1e12, 100*(peak/opts.CulpritRate-1))
	fmt.Fprintf(w, "  loss induced on well-behaved services: class A up to %.1f%%, class B up to %.1f%%\n",
		100*rep.PeakLoss(contract.ClassA), 100*rep.PeakLoss(contract.ClassB))
	fmt.Fprintln(w, "  QoS isolation alone cannot protect same-class victims (§2.2)")

	// --- The same overload under entitlement enforcement. ------------------
	// The culprit's contract entitles its pre-incident volume; the stateful
	// meter marks the excess, and the network drops only that.
	fmt.Fprintln(w, "\nwith entitlement enforcement:")
	points, err := enforce.SimulateMarking(enforce.MarkSimOptions{
		Demand:     opts.CulpritRate * (1 + opts.SpikeMagnitude),
		Entitled:   opts.CulpritRate,
		Loss:       1.0, // congested: non-conforming excess is dropped
		Iterations: 20,
		Meter:      enforce.NewStateful(),
	})
	if err != nil {
		return err
	}
	final := points[len(points)-1]
	fmt.Fprintf(w, "  the culprit's conforming traffic converges to its entitlement: %.2f Tbps (ratio %.2f)\n",
		final.ConformRate/1e12, final.ConformRatio)
	fmt.Fprintf(w, "  excess %.2f Tbps is remarked and absorbed by the scavenger queue,\n",
		(opts.CulpritRate*(1+opts.SpikeMagnitude)-final.ConformRate)/1e12)
	fmt.Fprintln(w, "  so victims in the same QoS class keep their guaranteed bandwidth.")
	fmt.Fprintln(w, "\naccountability under the contract (§3.2):")
	fmt.Fprintf(w, "  culprit above entitled rate → %v is responsible\n",
		contract.Accountability(opts.CulpritRate, peak, false))
	fmt.Fprintf(w, "  victim within entitled rate, traffic dropped → %v is responsible\n",
		contract.Accountability(3e12, 2.5e12, false))
	return nil
}
