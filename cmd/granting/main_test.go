package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/contractdb"
	"entitlement/internal/granting"
	"entitlement/internal/wire"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "granting", run) }

func TestFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-figure6"}, 2},
		{[]string{"regions", "6"}, 2}, // a dropped dash leaves words over
		{[]string{"-submit", "127.0.0.1:1", "-regions", "6", "x"}, 2},
		{[]string{"-codec", "json"}, 2},
		{[]string{"-regions", "1"}, 1},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.csv")}, 1},
	} {
		err := run(context.Background(), tc.args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != tc.code {
			t.Errorf("granting %q: exit %d (%v), want %d", tc.args, got, err, tc.code)
		}
	}
}

// TestTraceFile runs the pipeline on a user-supplied CSV history.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var csv strings.Builder
	for h := 0; h < 24*30; h++ {
		for _, dst := range []string{"R01", "R02"} {
			csv.WriteString("Web,c2_low,R00," + dst + "," + strconv.Itoa(h*3600) + ",2e11\n")
		}
	}
	if err := os.WriteFile(path, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-regions", "3", "-trace", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "workload: 2 flow aggregates loaded from "+path) || !strings.Contains(out.String(), "Web: ") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

// TestSubmitMatchesInProcess backs the README's "decisions are
// byte-identical either way": at default flags, the batch decided
// in-process prints what the same batch prints when -submit sends it to a
// grantd built by the shared set-up (cli.Grant), apart from the trace line
// and the elapsed time.
func TestSubmitMatchesInProcess(t *testing.T) {
	g := cli.GrantFlags(cli.FlagSet("granting", io.Discard))
	topo, err := g.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	svc := granting.NewService(topo, contractdb.NewStore(), g.Options())
	defer svc.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := granting.NewServerOpts(l, svc, wire.ServerOptions{})
	defer srv.Close()

	var local, remote bytes.Buffer
	if err := run(context.Background(), nil, &local, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-submit", srv.Addr()}, &remote, io.Discard); err != nil {
		t.Fatal(err)
	}
	elapsed := regexp.MustCompile(`(?m)^(pipeline: .*) in \S+$`)
	trace := regexp.MustCompile(`(?m)^submitted as trace [0-9a-f]{32} .*\n`)
	mask := func(out string) string { return elapsed.ReplaceAllString(trace.ReplaceAllString(out, ""), "$1") }
	if !trace.MatchString(remote.String()) {
		t.Errorf("-submit printed no trace line:\n%s", remote.String())
	}
	if a, b := mask(local.String()), mask(remote.String()); a != b || !strings.Contains(a, "contracts)") {
		t.Errorf("in-process and -submit outputs differ:\n--- in-process ---\n%s\n--- -submit ---\n%s", a, b)
	}
}
