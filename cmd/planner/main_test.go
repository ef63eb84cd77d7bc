package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli/clitest"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "planner", run) }

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
		want    []string // substrings of stdout
	}{
		{"bad flag", []string{"-no-such-flag"}, true, nil},
		{"bad value", []string{"-regions", "many"}, true, nil},
		{"stray argument", []string{"regions", "6"}, true, nil},
		{"too few regions", []string{"-regions", "1"}, true, nil},
		{"default is healthy", nil, false, []string{"backbone: 8 regions", "no upgrades needed"}},
		{"overloaded", []string{"-demand-scale", "1.5"}, false, []string{"binding links:\n  R", "recommended plan:\n  1. upgrade R", "after: "}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run(%q) error = %v, want error %v", tc.args, err, tc.wantErr)
			}
			if tc.wantErr && stdout.Len() != 0 {
				t.Errorf("failed run printed to stdout: %q", stdout.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
		})
	}
}

// TestRunWorkerInvariant: -workers changes how the analysis is scheduled,
// never what it prints.
func TestRunWorkerInvariant(t *testing.T) {
	var serial, parallel bytes.Buffer
	for workers, out := range map[string]*bytes.Buffer{"1": &serial, "4": &parallel} {
		if err := run(context.Background(), []string{"-demand-scale", "1.5", "-workers", workers}, out, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	if serial.String() != parallel.String() || serial.Len() == 0 {
		t.Errorf("-workers 1 and -workers 4 print different plans:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
}
