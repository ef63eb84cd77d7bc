package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/granting"
	"entitlement/internal/hose"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "grantd", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"stray"}, 2},
		{[]string{"-fsync", "alwyas"}, 2}, // rejected with or without -wal-dir
		{[]string{"-codec", "json"}, 2},
		{[]string{"-memo-max", "8"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-regions", "1"}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("grantd %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// TestDemoGolden pins `grantd -demo`'s whole output.
func TestDemoGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-demo"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "demo.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("grantd -demo differs from testdata/demo.golden:\n%s", out.String())
	}
}

// TestServeJournaled: a journaled grantd decides a submission, pushes the
// contract into an external contract database, serves /grants and
// /debug/traces, and recovers the decision when restarted on its journal.
func TestServeJournaled(t *testing.T) {
	db := contractdb.NewStore()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dbSrv := contractdb.NewServer(l, db)
	defer dbSrv.Close()
	walDir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-figure6", "-scenarios", "20", "-contractdb", dbSrv.Addr(),
		"-wal-dir", walDir, "-fsync", "always", "-metrics-addr", "127.0.0.1:0"}

	out, stop := clitest.Start(t, run, "listening on", args...)
	if want := "grantd recovered 0 decided, 0 pending from " + walDir + "\n"; !strings.HasPrefix(out(), want) {
		t.Errorf("output:\n%s\nwant prefix %q", out(), want)
	}
	c, err := granting.Dial(clitest.After(out(), "listening on "))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id, err := c.Submit(granting.Request{NPG: "Web", Hoses: []hose.Request{{
		NPG: "Web", Class: contract.C2Low, Region: "A", Direction: contract.Egress, Rate: 50e9,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decide(id, time.Minute)
	if err != nil || dec.Contract == nil {
		t.Fatalf("Decide = %+v, %v", dec, err)
	}
	if got := db.Len(); got != 1 {
		t.Errorf("contract database holds %d contracts, want 1", got)
	}
	metrics := clitest.After(out(), "addr=")
	for _, path := range []string{"/grants", "/debug/traces"} {
		resp, err := http.Get("http://" + metrics + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %s", path, resp.Status)
		}
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out(), "(5 regions, 20 scenarios, default SLO 0.9990)\n") || !strings.Contains(out(), "\ngrantd shutting down\n") {
		t.Errorf("output:\n%s", out())
	}

	out, _ = clitest.Start(t, run, "listening on", append(args, "-log-level", "warn")...)
	if want := "grantd recovered 1 decided, 0 pending from "; !strings.HasPrefix(out(), want) {
		t.Errorf("restart output:\n%s\nwant prefix %q", out(), want)
	}
}
