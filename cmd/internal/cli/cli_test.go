package cli_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/topology"
)

func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{cli.ErrUsage, 2},
		{errors.New("listen: address in use"), 1},
	} {
		if got := cli.ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestParse(t *testing.T) {
	newFlags := func() (*flag.FlagSet, *string) {
		fs := cli.FlagSet("t", io.Discard)
		return fs, cli.OneOf(fs, "policy", "host", "remark policy", "host", "flow")
	}
	for _, tc := range []struct {
		args []string
		ctx  context.Context
		want string // "" for no error, else the error's kind
		val  string
	}{
		{nil, context.Background(), "", "host"},
		{[]string{"-policy", "flow"}, context.Background(), "", "flow"},
		{[]string{"-policy", "flwo"}, context.Background(), "usage", "host"},
		{[]string{"-no-such-flag"}, context.Background(), "usage", "host"},
		{[]string{"-policy", "flow", "stray"}, context.Background(), "usage", "flow"},
		{[]string{"stray"}, cli.ParseOnly(context.Background()), "usage", "host"},
		{[]string{"-h"}, context.Background(), "help", "host"},
		{[]string{"-policy", "flow"}, cli.ParseOnly(context.Background()), "parse-only", "flow"},
	} {
		fs, policy := newFlags()
		err := cli.Parse(tc.ctx, fs, tc.args)
		got := ""
		switch {
		case errors.Is(err, cli.ErrParseOnly):
			got = "parse-only"
		case errors.Is(err, flag.ErrHelp):
			got = "help"
		case errors.Is(err, cli.ErrUsage):
			got = "usage"
		case err != nil:
			got = err.Error()
		}
		if got != tc.want || *policy != tc.val {
			t.Errorf("Parse(%q) = %q with -policy %q, want %q with %q", tc.args, got, *policy, tc.want, tc.val)
		}
	}
}

// TestDaemon: the metrics endpoint always serves /debug/traces beside the
// command's own routes, and Listen serves until its context is done, then
// announces the shutdown on stdout and in the log.
func TestDaemon(t *testing.T) {
	var stderr bytes.Buffer
	fs := cli.FlagSet("t", &stderr)
	d := cli.DaemonFlags(fs, true)
	if err := cli.Parse(context.Background(), fs, []string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	addr, err := d.Serve()
	if err != nil || addr == "" {
		t.Fatalf("Serve = %q, %v", addr, err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + addr + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/traces: %s", resp.Status)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var stdout bytes.Buffer
	err = d.Listen(ctx, &stdout, "t", "127.0.0.1:0", func(l net.Listener) io.Closer {
		cancel()
		return l
	})
	if err != nil || stdout.String() != "t shutting down\n" {
		t.Errorf("Listen = %v, stdout %q", err, stdout.String())
	}
	for _, want := range []string{"msg=\"metrics serving\" addr=" + addr, "msg=\"t shutting down\""} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, stderr.String())
		}
	}

	off := cli.DaemonFlags(cli.FlagSet("t", io.Discard), true)
	if addr, err := off.Serve(); addr != "" || err != nil {
		t.Errorf("Serve without -metrics-addr = %q, %v", addr, err)
	}
}

// TestSignals runs Main in a child process and interrupts it. A one-shot
// command that never watches its context dies on SIGINT as it would
// without Main; a daemon waiting in Listen shuts down cleanly on SIGTERM
// and exits 0.
func TestSignals(t *testing.T) {
	switch os.Getenv("CLI_TEST_CHILD") {
	case "oneshot":
		cli.Main("oneshot", func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
			fmt.Fprintln(stdout, "ready")
			time.Sleep(time.Minute)
			return nil
		})
	case "daemon":
		cli.Main("daemon", func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
			d := cli.DaemonFlags(cli.FlagSet("daemon", stderr), false)
			return d.Listen(ctx, stdout, "daemon", "127.0.0.1:0", func(l net.Listener) io.Closer {
				fmt.Fprintln(stdout, "ready")
				return l
			})
		})
	}
	for _, tc := range []struct {
		child  string
		sig    os.Signal
		state  string
		stdout string
	}{
		{"oneshot", os.Interrupt, "signal: interrupt", "ready\n"},
		{"daemon", syscall.SIGTERM, "exit status 0", "ready\ndaemon shutting down\n"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSignals$")
		cmd.Env = append(os.Environ(), "CLI_TEST_CHILD="+tc.child)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(stdout)
		if line, err := r.ReadString('\n'); line != "ready\n" {
			t.Fatalf("%s: first line %q, %v", tc.child, line, err)
		}
		timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
		cmd.Process.Signal(tc.sig)
		rest, _ := io.ReadAll(r)
		cmd.Wait()
		timer.Stop()
		got := cmd.ProcessState.String()
		if got != tc.state || "ready\n"+string(rest) != tc.stdout {
			t.Errorf("%s after %v: %s, stdout %q; want %s, %q", tc.child, tc.sig, got, "ready\n"+string(rest), tc.state, tc.stdout)
		}
	}
}

func TestGrantBackbone(t *testing.T) {
	g := cli.GrantFlags(cli.FlagSet("t", io.Discard))
	topo, err := g.Backbone()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumRegions() != 6 {
		t.Errorf("default backbone has %d regions", topo.NumRegions())
	}
	g.Figure6 = true
	if topo, _ := g.Backbone(); topo.NumRegions() != topology.FigureSix().NumRegions() {
		t.Errorf("-figure6 backbone has %d regions", topo.NumRegions())
	}
	o := g.Options().Approval
	if o.Risk.Seed != g.Seed+2 || o.Seed != g.Seed+3 || o.RepresentativeTMs != 4 || o.Risk.Scenarios != 100 {
		t.Errorf("options %+v", o)
	}
}

// TestReadmeCommandsNameBinaries: every `go run ./cmd/<name>` command in the
// README names a binary whose test parses it (clitest.CheckReadme).
func TestReadmeCommandsNameBinaries(t *testing.T) {
	cmds := clitest.ReadmeCommands(t)
	if len(cmds) == 0 {
		t.Fatal("no go run ./cmd/ commands found in README.md")
	}
	for _, c := range cmds {
		test, err := os.ReadFile(filepath.Join("..", "..", c.Name, "main_test.go"))
		if err != nil || !bytes.Contains(test, []byte(`clitest.CheckReadme(t, "`+c.Name+`", run)`)) {
			t.Errorf("README.md:%d: go run ./cmd/%s %s: no cmd/%s/main_test.go checks it (%v)", c.Line, c.Name, strings.Join(c.Args, " "), c.Name, err)
		}
	}
}
