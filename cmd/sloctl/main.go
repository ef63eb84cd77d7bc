// Command sloctl operates on incident black-box captures written by the SLO
// conformance plane (internal/slo.Blackbox).
//
// Usage:
//
//	sloctl inspect <capture.cap | capture-dir>   dump a capture's index
//	sloctl replay  [-strict] [-report] <capture.cap>
//	sloctl trace   [-addr HOST:PORT] <trace-id>  render one span tree
//	sloctl trace   -capture FILE [<trace-id>]    render trees from a capture
//
// `replay` re-drives the recorded incident window through the real SLO
// engine on a virtual clock and verifies the recomputed availability
// series, burn-rate alert sequence, and closing conformance verdicts are
// byte-identical to what the live run wrote — the capture is evidence, and
// replay is how you check nobody (and no code drift) has to be taken on
// faith. With -strict a divergent replay exits non-zero; -report prints the
// replayed conformance report as text. Replay also renders each fail-open
// or degraded host's first causal path from the span trees the black box
// retained.
//
// `trace` renders a distributed span tree as ASCII: from a live process's
// /debug/traces endpoint with -addr, or from the cycle spans recorded in an
// incident capture with -capture (no trace-id lists what's there).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/internal/obs/trace"
	"entitlement/internal/slo"
)

func main() { cli.Main("sloctl", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	cmds := map[string]cli.Run{"inspect": inspect, "replay": replay, "trace": traceCmd}
	switch {
	case len(args) == 0:
	case cmds[args[0]] != nil:
		return cmds[args[0]](ctx, args[1:], stdout, stderr)
	case args[0] == "-h" || args[0] == "--help" || args[0] == "help":
		fmt.Fprint(stderr, usage)
		return nil
	default:
		fmt.Fprintf(stderr, "sloctl: unknown command %q\n", args[0])
	}
	fmt.Fprint(stderr, usage)
	return cli.ErrUsage
}

const usage = "usage:\n  sloctl inspect <capture.cap | dir>\n  sloctl replay [-strict] [-report] [-envelope] <capture.cap>\n  sloctl trace [-addr HOST:PORT] <trace-id>\n  sloctl trace -capture <capture.cap> [<trace-id>]\n"

// inspect dumps the index of one capture, or of every capture in a
// directory, as JSON.
func inspect(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("inspect", stderr)
	if err := cli.ParseArgs(ctx, fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect takes one capture file or directory")
	}
	target := fs.Arg(0)
	paths := []string{target}
	if st, err := os.Stat(target); err == nil && st.IsDir() {
		paths, err = slo.ListCaptures(target)
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("%s: no captures", target)
		}
	}
	var indexes []slo.CaptureIndex
	for _, p := range paths {
		c, err := slo.ReadCapture(p)
		if err != nil {
			return err
		}
		indexes = append(indexes, c.Index())
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if len(indexes) == 1 {
		return enc.Encode(indexes[0])
	}
	return enc.Encode(indexes)
}

// replay re-drives one capture and reports whether the engine reproduced
// the live run byte-for-byte.
func replay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("replay", stderr)
	strict := fs.Bool("strict", false, "exit non-zero when the replay diverges from the recording")
	report := fs.Bool("report", false, "print the replayed conformance report as text")
	envelope := fs.Bool("envelope", false, "print the recorded attribution envelope as JSON")
	if err := cli.ParseArgs(ctx, fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay takes one capture file")
	}
	c, err := slo.ReadCapture(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := c.Replay()
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(struct {
		*slo.ReplayResult
		Report *slo.Report `json:"report,omitempty"` // shadow: text-only below
	}{res, nil}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if *report && res.Report != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Report.Text())
	}
	if *envelope {
		if env := c.Envelope(); env != nil {
			data, err := json.MarshalIndent(env, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n%s\n", data)
		} else {
			fmt.Fprintln(stderr, "sloctl: capture has no envelope (incident never closed)")
		}
	}
	// Causal paths: each fail-open or degraded host's first bad cycle,
	// rendered from the span tree the black box retained for it. This is
	// the "why", where the availability series above is only the "what".
	printCausalPaths(stdout, c)
	if *strict && !res.Identical {
		return fmt.Errorf("replay diverged: %s", res.Divergence)
	}
	return nil
}

// printCausalPaths renders the first degraded-or-worse cycle per host that
// carries a retained span tree.
func printCausalPaths(w io.Writer, c *slo.Capture) {
	printed := map[string]bool{}
	for _, sp := range c.Spans() {
		if !(sp.FailedOpen || sp.Degraded) || len(sp.Tree) == 0 || printed[sp.Host] {
			continue
		}
		printed[sp.Host] = true
		fmt.Fprintf(w, "\ncausal path: host %s %s at %s (stale %s)\n%s",
			sp.Host, cycleOutcome(sp), sp.At.Format(time.RFC3339), sp.StaleFor,
			trace.Tree{TraceID: sp.TraceID, Reason: cycleOutcome(sp), Spans: sp.Tree}.Render())
	}
}

func cycleOutcome(sp slo.CycleSpan) string {
	switch {
	case sp.FailedOpen:
		return "failopen"
	case sp.Degraded:
		return "degraded"
	default:
		return "ok"
	}
}

// traceCmd renders one distributed span tree (or lists what is available)
// from a live /debug/traces endpoint or a recorded capture.
func traceCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.FlagSet("trace", stderr)
	addr := fs.String("addr", "", "fetch from this process's /debug/traces endpoint")
	capture := fs.String("capture", "", "read cycle span trees from this incident capture instead")
	if err := cli.ParseArgs(ctx, fs, args); err != nil {
		return err
	}
	switch {
	case *addr != "" && *capture != "":
		return fmt.Errorf("trace takes -addr or -capture, not both")
	case *capture != "":
		return traceFromCapture(stdout, *capture, fs.Arg(0))
	case *addr != "":
		if fs.NArg() != 1 {
			return fmt.Errorf("trace -addr takes one trace id")
		}
		return traceFromAddr(stdout, *addr, fs.Arg(0))
	default:
		return fmt.Errorf("trace needs -addr HOST:PORT or -capture FILE")
	}
}

func traceFromAddr(w io.Writer, addr, id string) error {
	resp, err := http.Get("http://" + addr + "/debug/traces?trace=" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, string(msg))
	}
	var out struct {
		Traces []trace.Tree `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Traces) == 0 {
		return fmt.Errorf("trace %s not retained", id)
	}
	for _, t := range out.Traces {
		fmt.Fprint(w, t.Render())
	}
	return nil
}

func traceFromCapture(w io.Writer, path, id string) error {
	c, err := slo.ReadCapture(path)
	if err != nil {
		return err
	}
	found := false
	for _, sp := range c.Spans() {
		if len(sp.Tree) == 0 {
			continue
		}
		if id == "" {
			// Listing mode: one line per recorded tree.
			fmt.Fprintf(w, "%s  host %s  %s  %d spans  %s\n",
				sp.TraceID, sp.Host, cycleOutcome(sp), len(sp.Tree), sp.At.Format(time.RFC3339))
			found = true
			continue
		}
		if sp.TraceID != id {
			continue
		}
		found = true
		fmt.Fprint(w, trace.Tree{TraceID: sp.TraceID, Reason: cycleOutcome(sp), Spans: sp.Tree}.Render())
	}
	if !found {
		if id == "" {
			return fmt.Errorf("%s: no cycle spans with retained trees", path)
		}
		return fmt.Errorf("trace %s not recorded in %s", id, path)
	}
	return nil
}
