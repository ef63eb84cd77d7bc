package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli"
	"entitlement/cmd/internal/cli/clitest"
)

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "schemavet", run) }

// TestRun checks the committed lock, then a lock written by -update, a
// drifted copy and a missing one.
func TestRun(t *testing.T) {
	committed := filepath.Join("..", "..", "schema", "v1", "schema.lock")
	written := filepath.Join(t.TempDir(), "schema.lock")
	drifted := filepath.Join(t.TempDir(), "schema.lock")
	data, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(drifted, bytes.Replace(data, []byte("sha256:"), []byte("sha256:0"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout
	}{
		{[]string{"-lock", committed}, 0, " schemas match " + committed},
		{[]string{"-update", "-lock", written}, 0, "schemavet: wrote " + written},
		{[]string{"-lock", written}, 0, " schemas match " + written},
		{[]string{"-lock", drifted}, 1, ""},
		{[]string{"-lock", filepath.Join(t.TempDir(), "missing.lock")}, 1, ""},
		{[]string{"-no-such-flag"}, 2, ""},
	} {
		var stdout bytes.Buffer
		err := run(context.Background(), tc.args, &stdout, io.Discard)
		if got := cli.ExitCode(err); got != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("schemavet %q: exit %d (%v), stdout %q; want exit %d with %q", tc.args, got, err, stdout.String(), tc.code, tc.want)
		}
	}
}
