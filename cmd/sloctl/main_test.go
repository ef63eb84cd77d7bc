package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"entitlement/cmd/internal/cli/clitest"
	"entitlement/internal/obs/trace"
	"entitlement/internal/slo"
)

// fixture is a closed incident's capture with the index and replay the
// commit that wrote it produced.
var fixture = filepath.Join("..", "..", "internal", "slo", "testdata", "capture-pr15")

func TestReadmeCommands(t *testing.T) { clitest.CheckReadme(t, "sloctl", run) }

func TestRun(t *testing.T) {
	capture := filepath.Join(fixture, "incident-0000000000000001.cap")
	data, err := os.ReadFile(capture)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "incident-0000000000000001.cap")
	if err := os.WriteFile(torn, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	wantIndex, err := os.ReadFile(filepath.Join(fixture, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	// A /debug/traces endpoint that has retained one two-span tree.
	tree := trace.Tree{TraceID: "t1", Reason: "failopen", Spans: []trace.SpanRecord{
		{TraceID: "t1", SpanID: "s1", Name: "agent.cycle", Service: "h1", DurNs: 3e6},
		{TraceID: "t1", SpanID: "s2", Parent: "s1", Name: "kvstore.SumPrefix", Service: "h1", Note: "dial refused", DurNs: 2e6},
	}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/traces" || r.URL.Query().Get("trace") != tree.TraceID {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(map[string][]trace.Tree{"traces": {tree}})
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	for _, tc := range []struct {
		name    string
		args    []string
		wantErr bool
		check   func(t *testing.T, stdout string)
	}{
		{"no command", nil, true, nil},
		{"unknown command", []string{"explain", capture}, true, nil},
		{"bad flag", []string{"replay", "-no-such-flag", capture}, true, nil},
		{"inspect matches the fixture index", []string{"inspect", fixture}, false, func(t *testing.T, stdout string) {
			var idx slo.CaptureIndex
			if err := json.Unmarshal([]byte(stdout), &idx); err != nil {
				t.Fatal(err)
			}
			if idx.Path != capture {
				t.Errorf("path = %q, want %q", idx.Path, capture)
			}
			idx.Path = ""
			got, _ := json.MarshalIndent(idx, "", " ")
			if !bytes.Equal(append(got, '\n'), wantIndex) {
				t.Errorf("index differs from the fixture's:\nwant %s\ngot  %s", wantIndex, got)
			}
		}},
		{"replay -strict", []string{"replay", "-strict", capture}, false, func(t *testing.T, stdout string) {
			if !strings.Contains(stdout, `"identical": true`) {
				t.Errorf("replay not identical:\n%s", stdout)
			}
		}},
		{"replay -strict on a torn copy", []string{"replay", "-strict", torn}, true, nil},
		{"trace -capture without retained trees", []string{"trace", "-capture", capture}, true, nil},
		{"trace -capture with an unrecorded id", []string{"trace", "-capture", capture, "h1-c9"}, true, nil},
		{"trace -addr renders what the endpoint returns", []string{"trace", "-addr", addr, "t1"}, false, func(t *testing.T, stdout string) {
			for _, want := range []string{"t1", "agent.cycle", "kvstore.SumPrefix", "dial refused"} {
				if !strings.Contains(stdout, want) {
					t.Errorf("tree lacks %q:\n%s", want, stdout)
				}
			}
		}},
		{"trace -addr with an id the endpoint lacks", []string{"trace", "-addr", addr, "t2"}, true, nil},
		{"trace with no source", []string{"trace", "t1"}, true, nil},
		{"trace with two sources", []string{"trace", "-addr", addr, "-capture", capture, "t1"}, true, nil},
		{"replay -envelope", []string{"replay", "-envelope", capture}, false, func(t *testing.T, stdout string) {
			for _, want := range []string{`"closed_at": "2026-01-01T00:00:19Z"`, `"name": "A-\u003eB"`, `"fail_open_trace_id": "h1-c9"`} {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %s:\n%s", want, stdout)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run(%q) error = %v, want error %v", tc.args, err, tc.wantErr)
			}
			if tc.check != nil {
				tc.check(t, stdout.String())
			}
		})
	}
}
