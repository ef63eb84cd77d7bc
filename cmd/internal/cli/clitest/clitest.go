// Package clitest drives the commands under cmd/ in-process for their
// tests: it checks the README's command lines against a command's own flag
// set, and runs a long-lived command in the background until its test
// cancels it.
package clitest

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"entitlement/cmd/internal/cli"
)

// Command is one `go run ./cmd/<name> …` command line of the README.
type Command struct {
	Name string   // the directory under cmd/
	Line int      // where the command starts in README.md
	Args []string // its arguments, up to the first shell operator or comment
}

// ReadmeCommands returns every `go run ./cmd/…` command in the fenced code
// blocks of the module's README.md, with `\` continuations joined.
func ReadmeCommands(t testing.TB) []Command {
	_, self, _, _ := runtime.Caller(0)
	data, err := os.ReadFile(filepath.Join(filepath.Dir(self), "..", "..", "..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var cmds []Command
	fenced := false
	lines := strings.Split(string(data), "\n")
	for n := 0; n < len(lines); n++ {
		line, start := lines[n], n+1
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		for strings.HasSuffix(line, `\`) && n+1 < len(lines) {
			n++
			line = strings.TrimSuffix(line, `\`) + " " + lines[n]
		}
		_, rest, ok := strings.Cut(line, "go run ./cmd/")
		if !fenced || !ok {
			continue
		}
		f := strings.Fields(rest)
		cmd := Command{Name: strings.TrimSuffix(f[0], "/"), Line: start}
		for _, a := range f[1:] {
			if strings.ContainsAny(a[:1], "#&|;<>") {
				break
			}
			cmd.Args = append(cmd.Args, a)
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}

// CheckReadme parses every README command of the binary name with run's own
// flag set, without running it.
func CheckReadme(t *testing.T, name string, run cli.Run) {
	t.Helper()
	ctx := cli.ParseOnly(context.Background())
	for _, c := range ReadmeCommands(t) {
		if c.Name != name {
			continue
		}
		var stderr bytes.Buffer
		if err := run(ctx, c.Args, &stderr, &stderr); !errors.Is(err, cli.ErrParseOnly) {
			t.Errorf("README.md:%d: go run ./cmd/%s %s: %v\n%s", c.Line, name, strings.Join(c.Args, " "), err, stderr.String())
		}
	}
}

// Start runs run with args in the background, its stdout and stderr both
// into a file that out reads, and returns once out holds ready. stop
// cancels the command and returns its error; the test's cleanup stops it
// too.
func Start(t *testing.T, run cli.Run, ready string, args ...string) (out func() string, stop func() error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	out = func() string { b, _ := os.ReadFile(f.Name()); return string(b) }
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); err = run(ctx, args, f, f) }()
	stop = sync.OnceValue(func() error { cancel(); <-done; return err })
	t.Cleanup(func() { stop() })
	for deadline := time.Now().Add(time.Minute); !strings.Contains(out(), ready); time.Sleep(5 * time.Millisecond) {
		select {
		case <-done:
			t.Fatalf("%q exited before printing %q: %v\n%s", args, ready, err, out())
		default:
			if time.Now().After(deadline) {
				t.Fatalf("%q did not print %q:\n%s", args, ready, out())
			}
		}
	}
	return out, stop
}

// After returns the whitespace-delimited word that follows the first prefix
// in out, or "" when out lacks prefix.
func After(out, prefix string) string {
	_, rest, _ := strings.Cut(out, prefix)
	if f := strings.Fields(rest); len(f) > 0 {
		return f[0]
	}
	return ""
}
