package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/kvstore"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "agent", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"stray"}, 2},
		{[]string{"-policy", "flwo"}, 2},
		{[]string{"-codec", "json"}, 2},
		{[]string{"-class", "c9"}, 1},
		{[]string{"-log-level", "loud"}, 2},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("agent %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// stores serves a contractdb holding a 1 Tbps contract and an empty kvstore
// on loopback, and returns their addresses and the kvstore server.
func stores(t *testing.T) (dbAddr, kvAddr string, kv io.Closer) {
	db := contractdb.NewStore()
	now := time.Now().UTC()
	if err := db.Put(contract.Contract{NPG: "Coldstorage", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{NPG: "Coldstorage", Class: contract.C4Low, Region: "TEST",
			Direction: contract.Egress, Rate: 1e12, Start: now.Add(-time.Hour), End: now.Add(time.Hour)}},
	}); err != nil {
		t.Fatal(err)
	}
	serve := func(start func(net.Listener) io.Closer) (string, io.Closer) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := start(l)
		t.Cleanup(func() { srv.Close() })
		return l.Addr().String(), srv
	}
	dbAddr, _ = serve(func(l net.Listener) io.Closer { return contractdb.NewServer(l, db) })
	kvAddr, kv = serve(func(l net.Listener) io.Closer { return kvstore.NewServer(l, kvstore.New()) })
	return dbAddr, kvAddr, kv
}

// TestCycles runs a few cycles against in-process servers holding a 1 Tbps
// contract: the agent enforces it, serves metrics, and prints the SLO report
// when it stops.
func TestCycles(t *testing.T) {
	dbAddr, kvAddr, _ := stores(t)
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"-db", dbAddr, "-kv", kvAddr, "-cycles", "3", "-period", "10ms",
		"-policy", "flow", "-slo-report", "-blackbox-dir", t.TempDir(), "-metrics-addr", "127.0.0.1:0"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"agent host-001: Coldstorage/c4_low/TEST, flow-based remarking, 40 Gbps local egress",
		"metrics on http://127.0.0.1:",
		"cycle   2: entitled=1000.0G total=40.0G",
		"enforced=true host=conforming",
		"Coldstorage",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cycle   3:") {
		t.Errorf("ran past -cycles 3:\n%s", out)
	}
}

// hookWriter calls hook after every write while hook is set.
type hookWriter struct {
	bytes.Buffer
	hook func(written string)
}

func (w *hookWriter) Write(p []byte) (int, error) {
	n, err := w.Buffer.Write(p)
	if w.hook != nil {
		w.hook(w.String())
	}
	return n, err
}

// TestDegraded stops the kvstore after the first cycle: the agent keeps
// cycling on its cached aggregate, degraded, until the staleness budget runs
// out and it fails open. Each degraded cycle prints its faults and writes a
// Warn record carrying the cycle's trace ID and faults.
func TestDegraded(t *testing.T) {
	dbAddr, kvAddr, kv := stores(t)
	stdout := &hookWriter{}
	stdout.hook = func(written string) {
		if strings.Contains(written, "cycle   0:") {
			kv.Close()
			stdout.hook = nil
		}
	}
	var stderr bytes.Buffer
	err := run(context.Background(), []string{"-db", dbAddr, "-kv", kvAddr, "-cycles", "20", "-period", "20ms",
		"-staleness-budget", "200ms", "-log-json", "-log-level", "debug"}, stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()
	degraded, failOpen := strings.Index(out, "DEGRADED(stale "), strings.Index(out, "FAIL-OPEN")
	if degraded < 0 || failOpen < degraded {
		t.Errorf("stdout does not go DEGRADED, then FAIL-OPEN:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "cycle   1: fault: rate exchange: ") {
		t.Errorf("stderr lacks cycle 1's fault lines:\n%s", stderr.String())
	}
	// Cycle 0 was healthy (Debug), cycle 1 degraded (Warn); cycle_id is the
	// number the stdout line prints.
	records := map[string]bool{}
	for _, line := range strings.Split(stderr.String(), "\n") {
		var rec struct {
			Level, Msg, Faults string
			CycleID            int    `json:"cycle_id"`
			TraceID            string `json:"trace_id"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || !strings.HasPrefix(rec.Msg, "enforce.cycle") {
			continue
		}
		records[fmt.Sprintf("%d %s %s", rec.CycleID, rec.Level, rec.Msg)] = true
		if len(rec.TraceID) != 32 || (rec.Level == "WARN") == (rec.Faults == "") {
			t.Errorf("cycle record lacks its trace_id, or its faults do not match its level: %s", line)
		}
	}
	for _, want := range []string{"0 DEBUG enforce.cycle", "1 WARN enforce.cycle degraded"} {
		if !records[want] {
			t.Errorf("stderr lacks the record %q:\n%s", want, stderr.String())
		}
	}
}
