package granting

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"entitlement/internal/recordlog"
	"entitlement/internal/topology"
)

// walTestRecords builds a small representative record stream.
func walTestRecords() []walRecord {
	reqs := testRequests()
	return []walRecord{
		{T: "ckpt", Ckpt: &walCkpt{Seq: 3, Stats: Stats{Submitted: 3, Decided: 1}}},
		{T: "sub", Sub: &walSub{IDs: []string{"g-4", "g-5"}, Reqs: reqs[:2]}},
		{T: "dec", Dec: &walDec{Sig: "sig-a", IDs: []string{"g-4", "g-5"}, Decs: []Decision{
			{ID: "g-4", NPG: "Web", Status: StatusApproved},
			{ID: "g-5", NPG: "Web", Status: StatusRejected, Err: "no"},
		}}},
		{T: "sub", Sub: &walSub{IDs: []string{"g-6"}, Reqs: reqs[2:3]}},
	}
}

// encodeWALRecord frames one record with a throwaway encoder.
func encodeWALRecord(rec *walRecord) ([]byte, error) { return new(recordlog.Encoder).Encode(rec) }

// decodeWALStream collects the records of the stream's valid prefix, the way
// ReplayWAL reads one generation.
func decodeWALStream(r io.Reader) (recs []walRecord, valid int64, truncated bool) {
	valid, truncated = recordlog.Scan(r, func(payload []byte) bool {
		rec, ok := decodeWALRecord(payload)
		if ok {
			recs = append(recs, *rec)
		}
		return ok
	})
	return recs, valid, truncated
}

func encodeAll(t *testing.T, recs []walRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := range recs {
		b, err := encodeWALRecord(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func TestWALRecordRoundtrip(t *testing.T) {
	want := walTestRecords()
	stream := encodeAll(t, want)
	got, valid, truncated := decodeWALStream(bytes.NewReader(stream))
	if truncated {
		t.Fatal("clean stream reported truncated")
	}
	if valid != int64(len(stream)) {
		t.Fatalf("valid = %d, want %d", valid, len(stream))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if !bytes.Equal(wj, gj) {
		t.Fatalf("roundtrip diverged:\nwant %s\ngot  %s", wj, gj)
	}
}

// TestWALDecodeTornAndCorrupt drives the invalid-tail shapes that are the
// journal's own through the decoder: a well-framed record it cannot interpret
// ends the valid prefix exactly like a torn one. (Torn header, torn body, CRC
// flip, zero and oversized length, and garbage are the format's cases:
// recordlog.TestScanTornAndCorrupt.)
func TestWALDecodeTornAndCorrupt(t *testing.T) {
	recs := walTestRecords()
	stream := encodeAll(t, recs)
	// Offsets of each record boundary.
	var bounds []int64
	off := int64(0)
	for i := range recs {
		b, _ := encodeWALRecord(&recs[i])
		off += int64(len(b))
		bounds = append(bounds, off)
	}

	check := func(name string, data []byte, wantRecs int, wantValid int64) {
		t.Helper()
		got, valid, truncated := decodeWALStream(bytes.NewReader(data))
		if !truncated {
			t.Errorf("%s: truncated=false", name)
		}
		if len(got) != wantRecs || valid != wantValid {
			t.Errorf("%s: got %d records valid=%d, want %d records valid=%d",
				name, len(got), valid, wantRecs, wantValid)
		}
	}

	// Unknown record type with a valid checksum: replay must stop there.
	unk, err := encodeWALRecord(&walRecord{T: "mystery"})
	if err != nil {
		t.Fatal(err)
	}
	check("unknown type", append(append([]byte(nil), stream[:bounds[1]]...), unk...), 2, bounds[1])
	// Self-inconsistent sub (ids without reqs) with a valid checksum.
	bad, err := encodeWALRecord(&walRecord{T: "sub", Sub: &walSub{IDs: []string{"g-9"}}})
	if err != nil {
		t.Fatal(err)
	}
	check("inconsistent sub", append(append([]byte(nil), stream[:bounds[0]]...), bad...), 1, bounds[0])
	// A well-framed payload that is not JSON at all.
	junk, err := new(recordlog.Encoder).Encode(json.RawMessage(`"not a record"`))
	if err != nil {
		t.Fatal(err)
	}
	check("not a record", append(append([]byte(nil), stream[:bounds[2]]...), junk...), 3, bounds[2])
}

// TestReplayWALAcrossGenerations pins the replay order and the checkpoint
// reset: a later generation's checkpoint wholly replaces earlier state.
func TestReplayWALAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	recs := walTestRecords()
	// Gen 1: a checkpoint plus a sub that the gen-2 checkpoint supersedes.
	if err := os.WriteFile(walNames.Path(dir, 1), encodeAll(t, recs[:2]), 0o644); err != nil {
		t.Fatal(err)
	}
	// Gen 2: checkpoint carrying one decided id, then sub + dec + sub.
	gen2 := []walRecord{
		{T: "ckpt", Ckpt: &walCkpt{Seq: 3, Decided: []walDecided{{ID: "g-1", Dec: Decision{ID: "g-1", NPG: "Old", Status: StatusApproved}}}}},
		recs[1], recs[2], recs[3],
	}
	if err := os.WriteFile(walNames.Path(dir, 2), encodeAll(t, gen2), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Error("clean generations reported truncated")
	}
	if st.Seq != 6 {
		t.Errorf("Seq = %d, want 6 (highest journaled id)", st.Seq)
	}
	if len(st.Decided) != 3 { // g-1 from the checkpoint, g-4 and g-5 from the dec
		t.Fatalf("Decided = %d entries, want 3", len(st.Decided))
	}
	if st.Decided[0].ID != "g-1" || st.Decided[1].ID != "g-4" || st.Decided[2].ID != "g-5" {
		t.Errorf("Decided order = %s,%s,%s", st.Decided[0].ID, st.Decided[1].ID, st.Decided[2].ID)
	}
	if len(st.Pending) != 1 || st.Pending[0].IDs[0] != "g-6" {
		t.Fatalf("Pending = %+v, want just g-6", st.Pending)
	}
}

// TestReplayWALIgnoresStrayFiles is the regression for a copy of a generation
// set aside in the journal directory: Sscanf-style name parsing took
// wal-0000000000000001.log.bak (and .tmp, and wal-1.log) for generation 1, so
// replay double-counted it — and once the next checkpoint had pruned the
// original, failed on the missing file and kept grantd from starting on an
// intact journal. (The naming rules themselves: recordlog.TestNamesStrict.)
func TestReplayWALIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	recs := walTestRecords()
	live := encodeAll(t, recs)
	strays := []string{"wal-0000000000000001.log.bak", "wal-0000000000000001.log.tmp", "wal-1.log"}
	for _, name := range append([]string{filepath.Base(walNames.Path(dir, 1))}, strays...) {
		if err := os.WriteFile(filepath.Join(dir, name), live, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ReplayWAL(dir)
	if err != nil || st.Records != len(recs) {
		t.Fatalf("replay beside stray copies: %d records, %v; want %d", st.Records, err, len(recs))
	}
	// Opening checkpoints into generation 2 and prunes generation 1.
	j, _, err := openJournal(WALOptions{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if gens, _ := walNames.List(dir); len(gens) != 1 || gens[0] != 2 {
		t.Fatalf("generations after the checkpoint: %v, want [2]", gens)
	}
	for _, name := range strays {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("pruning deleted a file that is not a generation: %v", err)
		}
	}
	if st, err = ReplayWAL(dir); err != nil || st.Records != 1 {
		t.Fatalf("restart beside stray copies of a pruned generation: %d records, %v; want the checkpoint", st.Records, err)
	}
}

// TestJournalCheckpointRotation forces rotations with a tiny checkpoint
// bound and verifies old generations are pruned once the snapshot is
// durable: the directory never accumulates journal files.
func TestJournalCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	j, st, err := openJournal(WALOptions{Dir: dir, Fsync: FsyncNone, CheckpointBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Truncated {
		t.Fatalf("fresh dir recovered %d records truncated=%v", st.Records, st.Truncated)
	}
	reqs := testRequests()
	for i := 0; i < 50; i++ {
		ids := []string{"g-1"}
		if err := j.appendSub(ids, reqs[:1]); err != nil {
			t.Fatal(err)
		}
		if j.needCheckpoint() {
			if err := j.checkpoint(&walCkpt{Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	gens, err := walNames.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("after rotations %d generations remain (%v), want 1", len(gens), gens)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The surviving generation replays cleanly.
	if _, err := ReplayWAL(dir); err != nil {
		t.Fatal(err)
	}
}

// TestParseFsyncPolicy covers the flag surface.
func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"": FsyncBatch, "none": FsyncNone, "batch": FsyncBatch, "always": FsyncAlways,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("everysecond"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestServiceCleanRestart pins the simplest durability contract: stop a
// journaled service cleanly, reopen the same directory, and every decided
// id answers with byte-identical JSON while stats carry over.
func TestServiceCleanRestart(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(2)
	opts.WAL = WALOptions{Dir: dir, Fsync: FsyncNone}
	topo := topology.FigureSix()

	svc, err := OpenService(topo, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := svc.SubmitGroup(testRequests())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, id := range ids {
		d, err := svc.Wait(id, 2*time.Minute)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		want[id], _ = json.Marshal(d)
	}
	st := svc.Stats()
	svc.Close()

	svc2, err := OpenService(topology.FigureSix(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st2 := svc2.Stats()
	if st2.RecoveredDecided != int64(len(ids)) || st2.RecoveredPending != 0 {
		t.Errorf("recovered %d decided / %d pending, want %d / 0",
			st2.RecoveredDecided, st2.RecoveredPending, len(ids))
	}
	if st2.Decided != st.Decided || st2.Submitted != st.Submitted {
		t.Errorf("stats did not carry over: %+v vs %+v", st2, st)
	}
	for id, w := range want {
		state, d := svc2.Status(id)
		if state != "decided" || d == nil {
			t.Fatalf("id %s after restart: state %q", id, state)
		}
		g, _ := json.Marshal(d)
		if !bytes.Equal(g, w) {
			t.Errorf("id %s not byte-identical after restart:\nwant %s\ngot  %s", id, w, g)
		}
	}
	// New ids must not collide with journaled ones.
	nid, err := svc2.Submit(testRequests()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := want[nid]; taken {
		t.Errorf("restart re-issued id %s", nid)
	}
	if _, err := svc2.Wait(nid, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	// A directory that was never a journal recovers to zero state rather
	// than failing startup.
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
}
