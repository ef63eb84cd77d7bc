package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/output.golden from this tree's output")

// TestOutputGolden pins the example's output after its first line, which
// names the two servers' ephemeral addresses. The rest is deterministic:
// the agents converge the same way over any pair of sockets.
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
	afterFirstLine := func(b []byte) []byte { _, rest, _ := bytes.Cut(b, []byte("\n")); return rest }
	if !bytes.Equal(afterFirstLine(out.Bytes()), afterFirstLine(want)) {
		t.Errorf("output differs from %s after its first line\n--- got ---\n%s", path, out.String())
	}
}
