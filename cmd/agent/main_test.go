package main

import (
	"bytes"
	"context"
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

// TestCycles runs a few cycles against in-process servers holding a 1 Tbps
// contract: the agent enforces it, serves metrics, and prints the SLO report
// when it stops.
func TestCycles(t *testing.T) {
	db := contractdb.NewStore()
	now := time.Now().UTC()
	if err := db.Put(contract.Contract{NPG: "Coldstorage", SLO: 0.999, Approved: true,
		Entitlements: []contract.Entitlement{{NPG: "Coldstorage", Class: contract.C4Low, Region: "TEST",
			Direction: contract.Egress, Rate: 1e12, Start: now.Add(-time.Hour), End: now.Add(time.Hour)}},
	}); err != nil {
		t.Fatal(err)
	}
	serve := func(start func(net.Listener) io.Closer) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := start(l)
		t.Cleanup(func() { srv.Close() })
		return l.Addr().String()
	}
	dbAddr := serve(func(l net.Listener) io.Closer { return contractdb.NewServer(l, db) })
	kvAddr := serve(func(l net.Listener) io.Closer { return kvstore.NewServer(l, kvstore.New()) })

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
