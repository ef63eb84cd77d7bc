package clitest

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestReadmeCommands pins how README lines become arguments: a `\`
// continuation is joined, and a shell operator or comment ends the command.
func TestReadmeCommands(t *testing.T) {
	var grantd, benchgen []Command
	for _, c := range ReadmeCommands(t) {
		switch c.Name {
		case "grantd":
			grantd = append(grantd, c)
		case "benchgen":
			benchgen = append(benchgen, c)
		}
	}
	if len(grantd) == 0 || len(benchgen) == 0 {
		t.Fatalf("no grantd or benchgen commands: %v %v", grantd, benchgen)
	}
	joined := slices.IndexFunc(grantd, func(c Command) bool { return slices.Contains(c.Args, "-contractdb") })
	if joined < 0 || !slices.Contains(grantd[joined].Args, "-metrics-addr") || slices.Contains(grantd[joined].Args, "&") {
		t.Errorf("continued grantd command not joined or not cut at &: %v", grantd)
	}
	if len(benchgen[0].Args) != 0 {
		t.Errorf("benchgen's trailing comment was taken as arguments: %q", benchgen[0].Args)
	}
}

func TestStart(t *testing.T) {
	run := func(ctx context.Context, args []string, stdout, stderr io.Writer) error {
		fmt.Fprintf(stdout, "fake listening on %s (ready)\n", strings.Join(args, ","))
		<-ctx.Done()
		return ctx.Err()
	}
	out, stop := Start(t, run, "(ready)", "127.0.0.1:1", "x")
	if got := After(out(), "listening on "); got != "127.0.0.1:1,x" {
		t.Errorf("After = %q", got)
	}
	if err := stop(); err != context.Canceled {
		t.Errorf("stop = %v, want context.Canceled", err)
	}
	if After(out(), "no such prefix") != "" {
		t.Error("After found a missing prefix")
	}
}
