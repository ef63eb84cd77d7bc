package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "drill", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"stray"}, 2},
		{[]string{"-policy", "flwo"}, 2},
		{[]string{"-meter", "stateles"}, 2},
		{[]string{"-log-level", "debug"}, 2}, // drill keeps only -metrics-addr
		{[]string{"-hosts", "0"}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("drill %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// TestIncidentDrill runs a small drill with an incident and a black box,
// and checks the metrics endpoint stays up, traces included, until the
// context is cancelled.
func TestIncidentDrill(t *testing.T) {
	dir := t.TempDir()
	out, stop := clitest.Start(t, run, "metrics still on", "-hosts", "4", "-stage-ticks", "10", "-policy", "flow", "-meter", "stateless",
		"-incident-start", "12", "-incident-end", "18", "-incident-fail-agents", "1", "-blackbox-dir", dir,
		"-series", "-metrics-addr", "127.0.0.1:0")
	addr := strings.TrimSuffix(strings.TrimPrefix(clitest.After(out(), "metrics on "), "http://"), "/metrics")
	for _, path := range []string{"/debug/traces", "/slo", "/slo/incidents"} {
		resp, err := http.Get("http://" + addr + path)
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
	for _, want := range []string{
		"drill: 4 hosts × ", "flow-based remarking, stateless meter",
		"baseline (drop 0.0%)", "tick series", "SLO conformance report",
		"black box: 1 capture(s) in " + dir,
	} {
		if !strings.Contains(out(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, out())
		}
	}
}
