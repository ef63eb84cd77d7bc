package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/contractdb"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "contractdb", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"stray"}, 2},
		{[]string{"-demo=maybe"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-addr", "127.0.0.1:-1"}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("contractdb %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// TestDemoContractSurvivesRestart: with -dir the seeded demo contract is in
// the log, and a restart on the same directory recovers it and serves it.
func TestDemoContractSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	out, stop := clitest.Start(t, run, "listening on", "-addr", "127.0.0.1:0", "-dir", dir, "-demo", "-log-level", "warn")
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	want := "contractdb recovered 0 contracts from 0 records, truncated=false (" + dir + ")\n" +
		"seeded demo contract: Coldstorage c4_low TEST egress 1 Tbps\n"
	if !strings.HasPrefix(out(), want) || !strings.HasSuffix(out(), "\ncontractdb shutting down\n") {
		t.Errorf("first run stdout:\n%s\nwant prefix:\n%s", out(), want)
	}

	out, _ = clitest.Start(t, run, "listening on", "-addr", "127.0.0.1:0", "-dir", dir)
	if !strings.HasPrefix(out(), "contractdb recovered 1 contracts from ") {
		t.Errorf("restart stdout:\n%s", out())
	}
	c, err := contractdb.Dial(clitest.After(out(), "listening on "))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if slo, ok, err := c.SLO("Coldstorage"); err != nil || !ok || slo != 0.999 {
		t.Errorf("SLO(Coldstorage) = %v, %v, %v after restart", slo, ok, err)
	}
}
