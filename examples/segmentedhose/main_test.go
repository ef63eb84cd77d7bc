package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/output.golden from this tree's output")

// TestOutputGolden pins the example's whole output. It is deterministic, so
// any change to what it prints is a change to what the example shows.
func TestOutputGolden(t *testing.T) {
	path := filepath.Join("testdata", "output.golden")
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s\n--- got ---\n%s", path, out.String())
	}
}
