package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/kvstore"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "kvstore", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"stray"}, 2},
		{[]string{"-compact-every", "soon"}, 2},
		{[]string{"-log-level", "loud"}, 2},
		{[]string{"-addr", "127.0.0.1:-1"}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("kvstore %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// TestServe: the store serves puts and prefix sums until its context is
// cancelled, with /debug/traces on its metrics endpoint.
func TestServe(t *testing.T) {
	out, stop := clitest.Start(t, run, "listening on", "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-compact-every", "10ms")
	c, err := kvstore.Dial(clitest.After(out(), "listening on "))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, k := range []string{"rate/a/h1", "rate/a/h2"} {
		if err := c.Put(k, 2, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if sum, err := c.SumPrefix("rate/a/"); err != nil || sum != 4 {
		t.Errorf("SumPrefix = %v, %v; want 4", sum, err)
	}
	resp, err := http.Get("http://" + clitest.After(out(), "addr=") + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/traces: %s", resp.Status)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out(), "\nkvstore shutting down\n") || !strings.Contains(out(), `msg="kvstore shutting down"`) {
		t.Errorf("output:\n%s", out())
	}
}
