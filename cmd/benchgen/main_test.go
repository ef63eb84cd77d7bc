package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"entitlement/cmd/internal/cli/clitest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figures-small.golden from this tree's output")

// TestFigureGolden pins every figure's headline metrics and series at small
// scale to testdata/figures-small.golden, written by the commit before the
// figure-moving changes it guards: a change may restructure how a figure is
// computed, never what it prints.
func TestFigureGolden(t *testing.T) {
	path := filepath.Join("testdata", "figures-small.golden")
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "small"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	if *updateGolden {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("figures differ from %s\n--- got ---\n%s", path, stdout.String())
	}
}

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "benchgen", run) }

func TestRunFlagsAndCSV(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown flag accepted")
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-scale", "small", "-figure", "fig-22", "-csv", dir}, &stdout, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(files) != 1 {
		t.Fatalf("csv files = %v (%v), want one", files, err)
	}
	if got := stdout.String(); got != "wrote "+files[0]+"\n" {
		t.Errorf("stdout = %q", got)
	}
}
