// The tests sit outside the package because package faults, which drives
// them, reaches this package through contractdb.
package recordlog_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"entitlement/internal/faults"
	"entitlement/internal/recordlog"
)

var testNames = recordlog.Names{Prefix: "wal-", Suffix: ".log"}

// testPayloads are records of assorted sizes; "<&>" checks that a frame's
// payload is json.Marshal's bytes, HTML escaping included.
func testPayloads() []string {
	return []string{"snapshot", "a", strings.Repeat("record ", 40), "g-<&>", "tail"}
}

// frames encodes the payloads with one encoder and returns the stream and
// the offset of each record boundary.
func frames(t testing.TB, payloads []string) (stream []byte, bounds []int64) {
	t.Helper()
	var enc recordlog.Encoder
	for _, p := range payloads {
		frame, err := enc.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
		bounds = append(bounds, int64(len(stream)))
	}
	return stream, bounds
}

// scan collects the payloads of the valid prefix, rejecting "reject me".
func scan(data []byte) (payloads []string, valid int64, truncated bool) {
	valid, truncated = recordlog.Scan(bytes.NewReader(data), func(p []byte) bool {
		if string(p) == `"reject me"` {
			return false
		}
		payloads = append(payloads, string(p))
		return true
	})
	return payloads, valid, truncated
}

// quoted is what scan reports for the given payload strings: a frame's
// payload is exactly json.Marshal of the record.
func quoted(payloads []string) []string {
	var out []string
	for _, p := range payloads {
		b, _ := json.Marshal(p)
		out = append(out, string(b))
	}
	return out
}

func TestScanRoundtrip(t *testing.T) {
	want := testPayloads()
	stream, bounds := frames(t, want)
	got, valid, truncated := scan(stream)
	if truncated || valid != bounds[len(bounds)-1] {
		t.Fatalf("clean stream: valid=%d of %d, truncated=%v", valid, len(stream), truncated)
	}
	if !reflect.DeepEqual(got, quoted(want)) {
		t.Fatalf("round trip diverged:\nwant %q\ngot  %q", quoted(want), got)
	}
	if _, valid, truncated := scan(nil); valid != 0 || truncated {
		t.Errorf("empty stream: valid=%d truncated=%v", valid, truncated)
	}
	if _, err := new(recordlog.Encoder).Encode(make(chan int)); err == nil {
		t.Error("encoded a value JSON cannot represent")
	}
	if _, err := new(recordlog.Encoder).Encode(strings.Repeat("x", recordlog.MaxRecord)); err == nil {
		t.Error("encoded a record beyond MaxRecord")
	}
}

// TestScanTornAndCorrupt drives every invalid-tail shape of the format
// through Scan, on real files damaged with the faults kit: it must keep the
// valid prefix, report truncation, and never error or panic. (The journal's
// and the black box's own cases — a well-framed record of unknown type or
// inconsistent shape — stay with TestWALDecodeTornAndCorrupt and
// FuzzBlackboxDecode; here accept stands in for them.)
func TestScanTornAndCorrupt(t *testing.T) {
	payloads := testPayloads()
	stream, bounds := frames(t, payloads)
	path := filepath.Join(t.TempDir(), "log")
	check := func(name string, wantRecs int, wantValid int64) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, valid, truncated := scan(data)
		if !truncated {
			t.Errorf("%s: truncated=false", name)
		}
		if len(got) != wantRecs || valid != wantValid {
			t.Errorf("%s: got %d records valid=%d, want %d records valid=%d", name, len(got), valid, wantRecs, wantValid)
		}
	}
	write := func(data ...[]byte) {
		t.Helper()
		if err := os.WriteFile(path, bytes.Join(data, nil), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Torn header: the page cache acknowledged every write, the disk kept
	// three bytes of the last record's header.
	var disk bytes.Buffer
	tw := &faults.TornWriter{W: &disk, Budget: bounds[2] + 3}
	if n, err := tw.Write(stream); n != len(stream) || err != nil {
		t.Fatalf("torn write = %d, %v", n, err)
	}
	write(disk.Bytes())
	check("torn header", 3, bounds[2])
	// Torn body: cut mid-way through the last record's body.
	write(stream)
	if err := faults.TearFile(path, bounds[4]-2); err != nil {
		t.Fatal(err)
	}
	check("torn body", 4, bounds[3])
	// CRC flip: corrupt one payload bit of the third record.
	write(stream)
	if err := faults.FlipBit(path, bounds[1]+recordlog.HeaderSize, 0); err != nil {
		t.Fatal(err)
	}
	check("payload bit flip", 2, bounds[1])
	// A flipped checksum bit is as bad as a flipped payload bit.
	write(stream)
	if err := faults.FlipBit(path, bounds[0]+5, 7); err != nil {
		t.Fatal(err)
	}
	check("checksum bit flip", 1, bounds[0])
	// Zero length prefix.
	write(stream[:bounds[1]], make([]byte, recordlog.HeaderSize))
	check("zero length", 2, bounds[1])
	// Oversized length prefix.
	var hdr [recordlog.HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], recordlog.MaxRecord+1)
	write(stream[:bounds[0]], hdr[:])
	check("oversized length", 1, bounds[0])
	// A well-framed record the log's owner rejects ends the prefix too, and
	// nothing after it is offered.
	rejected, _ := frames(t, []string{"reject me", "after"})
	write(stream[:bounds[1]], rejected)
	check("rejected payload", 2, bounds[1])
	// Pure garbage from byte zero recovers to nothing.
	write([]byte("this is not a record log at all"))
	check("garbage", 0, 0)
}

// TestScanCrashTail damages a log's tail the way a crash mid-write would
// (torn, bit-flipped, garbage appended: faults.CrashTail) across 100 seeds.
// The valid prefix never reaches past the pristine bytes, holds exactly the
// leading records, and scans clean on its own.
func TestScanCrashTail(t *testing.T) {
	payloads := testPayloads()
	stream, bounds := frames(t, payloads)
	path := filepath.Join(t.TempDir(), "log")
	for seed := int64(0); seed < 100; seed++ {
		if err := os.WriteFile(path, stream, 0o644); err != nil {
			t.Fatal(err)
		}
		desc, err := faults.CrashTail(path, rand.New(rand.NewSource(seed)), 64)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, valid, truncated := scan(data)
		if !truncated || valid > int64(len(stream)) {
			t.Fatalf("seed %d (%s): valid=%d of %d pristine bytes, truncated=%v", seed, desc, valid, len(stream), truncated)
		}
		wantValid := int64(0)
		if len(got) > 0 {
			wantValid = bounds[len(got)-1]
		}
		if valid != wantValid || !reflect.DeepEqual(got, quoted(payloads[:len(got)])) {
			t.Fatalf("seed %d (%s): valid prefix of %d bytes holds %q", seed, desc, valid, got)
		}
		if again, validAgain, truncAgain := scan(data[:valid]); truncAgain || validAgain != valid || !reflect.DeepEqual(again, got) {
			t.Fatalf("seed %d (%s): the valid prefix does not scan clean", seed, desc)
		}
	}
}

// FuzzRecordlogScan throws arbitrary bytes at Scan. It must never panic, must
// never claim more valid bytes than the input holds, a clean scan covers the
// whole input, and — the load-bearing property — the prefix it reports valid
// scans clean to the same payloads on its own: truncation always lands
// exactly on a record boundary of a self-consistent prefix.
func FuzzRecordlogScan(f *testing.F) {
	clean, _ := frames(f, testPayloads())
	f.Add(clean)                // well-formed stream
	f.Add(clean[:len(clean)-3]) // torn tail
	f.Add([]byte{})             // empty log
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0x40 // bit flip mid-stream
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), clean...), []byte("trailing garbage past the last record")...))
	rejected, _ := frames(f, []string{"a", "reject me", "b"})
	f.Add(rejected)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, valid, truncated := scan(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if !truncated && valid != int64(len(data)) {
			t.Fatalf("clean scan but valid = %d of %d bytes", valid, len(data))
		}
		again, validAgain, truncAgain := scan(data[:valid])
		if truncAgain {
			t.Fatalf("valid prefix (%d bytes) reported truncated on its own", valid)
		}
		if validAgain != valid || !reflect.DeepEqual(again, got) {
			t.Fatalf("prefix scan: %q valid=%d, want %q valid=%d", again, validAgain, got, valid)
		}
	})
}

// TestNamesStrict pins what counts as a generation file. Anything Path would
// not have produced — a copy set aside, a temp file, a short number, another
// prefix — and anything that is not a regular file is ignored by replay, by
// next-generation numbering and by pruning: a foreign entry is never read
// and never deleted. (Sscanf-style parsing took wal-….log.bak for generation
// 1: grantd replayed it twice, or refused to start once the original had
// been pruned.)
func TestNamesStrict(t *testing.T) {
	for name, want := range map[string]bool{
		"wal-0000000000000001.log":      true,
		"wal-0000000000000001.log.bak":  false,
		"wal-0000000000000001.log.tmp":  false,
		"wal-1.log":                     false,
		"wal-00000000000000001.log":     false,
		"wal-000000000000000a.log":      false,
		"wal-+000000000000001.log":      false,
		"incident-0000000000000001.log": false,
		"wal-0000000000000001.cap":      false,
		"0000000000000001":              false,
		"wal-12345678901234567890.log":  true, // wider than the padding, still what Path yields
	} {
		gen, ok := testNames.Parse(name)
		if ok != want || ok && filepath.Base(testNames.Path("", gen)) != name {
			t.Errorf("Parse(%q) = %d, %v, want ok=%v", name, gen, ok, want)
		}
	}

	dir := t.TempDir()
	live, _ := frames(t, []string{"snapshot", "one"})
	if err := os.WriteFile(testNames.Path(dir, 1), live, 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := []string{
		"wal-0000000000000001.log.bak", "wal-0000000000000001.log.tmp", "wal-1.log",
		"incident-0000000000000007.log", "README",
	}
	for _, name := range foreign {
		// A copy of the live generation: replaying it would double-count.
		if err := os.WriteFile(filepath.Join(dir, name), live, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	squatter := testNames.Path(dir, 9) // a directory with a generation's name
	if err := os.Mkdir(squatter, 0o755); err != nil {
		t.Fatal(err)
	}
	foreign = append(foreign, filepath.Base(squatter))

	if gens, err := testNames.List(dir); err != nil || !reflect.DeepEqual(gens, []uint64{1}) {
		t.Fatalf("List = %v, %v, want [1]", gens, err)
	}
	records := 0
	if truncated, err := recordlog.Replay(dir, testNames, func([]byte) bool { records++; return true }); err != nil || truncated != 0 || records != 2 {
		t.Fatalf("Replay = %d truncated, %v, after %d records; want the live generation's 2", truncated, err, records)
	}
	l, err := recordlog.Open(dir, testNames, 1<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Rotate("snapshot", true); err != nil {
		t.Fatal(err)
	}
	// Numbered after the live generation, not after the squatter; the live
	// generation is pruned, nothing foreign is.
	if gens, _ := testNames.List(dir); !reflect.DeepEqual(gens, []uint64{2}) {
		t.Errorf("generations after the first rotation: %v, want [2]", gens)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("pruning touched a foreign entry: %v", err)
		}
	}

	// A missing directory holds no generations; something that is not a
	// directory is an error, not an empty log.
	if gens, err := testNames.List(filepath.Join(dir, "absent")); err != nil || gens != nil {
		t.Errorf("List(absent) = %v, %v", gens, err)
	}
	if _, err := recordlog.Replay(filepath.Join(dir, "README"), testNames, nil); err == nil {
		t.Error("replayed a regular file as a log directory")
	}
	if _, err := recordlog.Open(filepath.Join(dir, "README"), testNames, 1, nil); err == nil {
		t.Error("opened a regular file as a log directory")
	}
}

// TestReplayAcrossGenerations: generations replay oldest first, each keeps
// its own valid prefix, and a torn one in mid-sequence is counted, not fatal.
func TestReplayAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	gen1, bounds := frames(t, []string{"snap1", "a", "b"})
	gen2, _ := frames(t, []string{"snap2", "c"})
	if err := os.WriteFile(testNames.Path(dir, 3), gen1[:bounds[2]-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(testNames.Path(dir, 12), gen2, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []string
	truncated, err := recordlog.Replay(dir, testNames, func(p []byte) bool { got = append(got, string(p)); return true })
	if err != nil || truncated != 1 {
		t.Fatalf("Replay = %d truncated, %v, want 1", truncated, err)
	}
	if want := quoted([]string{"snap1", "a", "snap2", "c"}); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %q, want %q", got, want)
	}
}

// faultFile is a generation file that can be told to fail.
type faultFile struct {
	*os.File
	failWrite, failSync error
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.failWrite != nil {
		return 0, f.failWrite
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync != nil {
		return f.failSync
	}
	return f.File.Sync()
}

// TestRotateFaults pins the failed-rotation contract at the mechanism:
// whichever step of writing the next generation fails — create, write, sync —
// nothing of the failed file is left behind, the log keeps appending to the
// current generation, replay finds everything appended around the failure,
// the rotation falls due again only after another bound of log, and it
// succeeds (and prunes) once the fault is gone. (TestJournalFailedRotation
// pins the same through grantd: counted, served, recovered after restart.)
func TestRotateFaults(t *testing.T) {
	boom := errors.New("injected fault")
	for _, step := range []string{"create", "write", "sync"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			var fail string
			create := func(path string) (recordlog.File, error) {
				if fail == "create" {
					return nil, boom
				}
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
				if err != nil {
					return nil, err
				}
				ff := &faultFile{File: f}
				switch fail {
				case "write":
					ff.failWrite = boom
				case "sync":
					ff.failSync = boom
				}
				return ff, nil
			}
			const bound = 256
			l, err := recordlog.Open(dir, testNames, bound, create)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Rotate("snapshot 1", true); err != nil {
				t.Fatal(err)
			}
			want := []string{"snapshot 1"}
			appendUntilDue := func() {
				t.Helper()
				for i := 0; !l.Due(); i++ {
					if i > bound {
						t.Fatal("the rotation never fell due")
					}
					p := fmt.Sprintf("record %d", len(want))
					n, err := l.Append(p)
					if err != nil || n != recordlog.HeaderSize+len(p)+2 {
						t.Fatalf("Append = %d, %v", n, err)
					}
					want = append(want, p)
				}
			}
			appendUntilDue()

			fail = step
			if _, err := l.Rotate("snapshot 2", true); !errors.Is(err, boom) {
				t.Fatalf("Rotate with a failing %s = %v, want the injected fault", step, err)
			}
			if l.Due() {
				t.Error("a failed rotation is due again at once, not after another bound of log")
			}
			if gens, _ := testNames.List(dir); !reflect.DeepEqual(gens, []uint64{1}) {
				t.Fatalf("generations after the failed rotation: %v, want only the current one", gens)
			}
			before := len(want)
			appendUntilDue()
			if grown := len(want) - before; grown < 2 {
				t.Errorf("the retry fell due after %d records, want about a bound's worth", grown)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			var got []string
			if truncated, err := recordlog.Replay(dir, testNames, func(p []byte) bool { got = append(got, string(p)); return true }); err != nil || truncated != 0 {
				t.Fatalf("Replay = %d truncated, %v", truncated, err)
			}
			if !reflect.DeepEqual(got, quoted(want)) {
				t.Errorf("replay around the failed rotation:\nwant %q\ngot  %q", quoted(want), got)
			}

			fail = ""
			if _, err := l.Rotate("snapshot 2", true); err != nil {
				t.Fatalf("Rotate after the fault cleared: %v", err)
			}
			if gens, _ := testNames.List(dir); !reflect.DeepEqual(gens, []uint64{2}) {
				t.Errorf("generations after the retry: %v, want [2]", gens)
			}
		})
	}
}

// TestAppendAndSyncErrors: a failed write or sync on the current generation
// is the caller's to handle — reported, not counted towards the rotation.
func TestAppendAndSyncErrors(t *testing.T) {
	boom := errors.New("injected fault")
	var current *faultFile
	l, err := recordlog.Open(t.TempDir(), testNames, 64, func(path string) (recordlog.File, error) {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		current = &faultFile{File: f}
		return current, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Rotate("snapshot", true); err != nil {
		t.Fatal(err)
	}
	current.failWrite, current.failSync = boom, boom
	for i := 0; i < 10; i++ {
		if n, err := l.Append("lost"); !errors.Is(err, boom) || n != 0 {
			t.Fatalf("Append on a failing file = %d, %v", n, err)
		}
	}
	if l.Due() {
		t.Error("failed appends counted towards the rotation bound")
	}
	if err := l.Sync(); !errors.Is(err, boom) {
		t.Errorf("Sync on a failing file = %v", err)
	}
	if _, err := l.Append(make(chan int)); err == nil {
		t.Error("appended a value JSON cannot represent")
	}
}

// TestRotateCadence pins when a rotation is due: once the bytes appended
// after the snapshot reach max(bound, snapshot bytes), whichever is larger —
// and that an un-synced rotation (a caller that never syncs) works the same.
func TestRotateCadence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapshot string
		bound    int64
	}{
		{"bound larger", "tiny", 300},
		{"snapshot larger", strings.Repeat("s", 500), 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := recordlog.Open(filepath.Join(t.TempDir(), "made", "on", "demand"), testNames, tc.bound, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			n, err := l.Rotate(tc.snapshot, false)
			if err != nil {
				t.Fatal(err)
			}
			dueAt := max(tc.bound, int64(n))
			var appended int64
			for !l.Due() {
				n, err := l.Append("0123456789")
				if err != nil {
					t.Fatal(err)
				}
				appended += int64(n)
			}
			if appended < dueAt || appended >= dueAt+20 {
				t.Errorf("due after %d bytes of records, want at max(bound %d, snapshot %d)", appended, tc.bound, n)
			}
		})
	}
	if err := new(recordlog.Log).Close(); err != nil {
		t.Errorf("closing a log that never opened a generation: %v", err)
	}
}
