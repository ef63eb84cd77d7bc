// The write-ahead decision journal: grantd is the system of record for every
// entitlement, so an accepted submission and a decided batch must both
// survive a crash. The journal is an append-only sequence of length-prefixed,
// CRC-checksummed records in generation-numbered files; a checkpoint record
// opens each generation with a full state snapshot, so replay is "latest
// checkpoint + everything after it" and old generations can be deleted.
//
// Record framing (all integers big-endian):
//
//	4 bytes  payload length n (0 < n <= maxWALRecord)
//	4 bytes  CRC-32C (Castagnoli) of the payload
//	n bytes  payload: one JSON-encoded walRecord
//
// Record types:
//
//	sub   submission accepted: ids + validated requests (StartUnix pinned)
//	dec   batch decided: canonical batch signature + per-request decisions
//	ckpt  checkpoint: id counter, stats, decided table, pending submissions
//
// Recovery invariants (pinned by the crash property test):
//
//   - Replay tolerates a torn tail: decoding stops at the first record whose
//     header, length, checksum, or body is invalid, keeps the valid prefix,
//     and never fails or panics on arbitrary bytes (FuzzJournalReplay).
//   - A request id whose dec record survived is served byte-identically
//     after restart: the decision JSON round-trips exactly (encoding/json
//     renders float64 shortest-roundtrip, so equal structs re-render to
//     equal bytes).
//   - A sub record without a surviving dec record is re-queued and
//     re-decided deterministically: StartUnix was pinned at the original
//     submission, and the decider re-coalesces the recovered queue in the
//     original order.
//   - A decision that was served but whose dec record was lost to the torn
//     tail is re-derived by the same determinism, so durability of the dec
//     record is a latency optimization for restarts, not a correctness
//     requirement — which is why a journal append failure inside decide()
//     degrades to a metric instead of failing the decision.
package granting

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// FsyncPolicy says when the journal calls fsync.
type FsyncPolicy string

// Fsync policies, weakest to strongest.
const (
	// FsyncNone never syncs; the OS flushes on its own schedule. A crash
	// can lose recent records (they are re-derived deterministically), a
	// clean restart loses nothing.
	FsyncNone FsyncPolicy = "none"
	// FsyncBatch (the default) syncs once per commit group — every batch
	// decided since the last commit slot, see commitInterval — and per
	// checkpoint; accepted-but-undecided submissions may be lost to a
	// crash, decisions survive.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncAlways syncs after every record: an accepted submission is
	// durable before Submit returns.
	FsyncAlways FsyncPolicy = "always"
)

// ParseFsyncPolicy parses the flag form of a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncNone, FsyncBatch, FsyncAlways:
		return FsyncPolicy(s), nil
	case "":
		return FsyncBatch, nil
	}
	return "", fmt.Errorf("granting: unknown fsync policy %q (want none, batch, or always)", s)
}

// WALOptions configure the write-ahead decision journal.
type WALOptions struct {
	// Dir holds the journal files; empty disables durability entirely.
	Dir string
	// Fsync is the sync policy. Default FsyncBatch.
	Fsync FsyncPolicy
	// CheckpointBytes is the journal bytes between snapshot checkpoints: the
	// journal rotates (snapshot + prune) once the records appended after
	// the generation's opening snapshot reach max(CheckpointBytes, snapshot
	// bytes). Growing the bound with the snapshot keeps write amplification
	// and replay size within 2x of the log for any Retain and decision
	// size. Default 1 MiB.
	CheckpointBytes int64

	// create makes an empty generation file; nil means createWALFile. The
	// crash tests substitute files that fail on cue and record what a
	// completed sync covers.
	create func(path string) (walFile, error)
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Fsync == "" {
		o.Fsync = FsyncBatch
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 1 << 20
	}
	if o.create == nil {
		o.create = createWALFile
	}
	return o
}

// createWALFile creates (or empties) a generation file on disk.
func createWALFile(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// maxWALRecord bounds one record's payload; a length prefix beyond it marks
// a corrupt (or torn) tail. Matches the wire layer's frame bound.
const maxWALRecord = 16 << 20

// walHeaderSize is the fixed per-record framing overhead.
const walHeaderSize = 8

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walSub journals one accepted submission (a group decides atomically).
type walSub struct {
	IDs  []string  `json:"ids"`
	Reqs []Request `json:"reqs"`
}

// walDec journals one decided batch. Sig is the canonical batch signature
// ("" when the batch was not memoizable); Decs[i] answers IDs[i].
type walDec struct {
	Sig  string     `json:"sig,omitempty"`
	IDs  []string   `json:"ids"`
	Decs []Decision `json:"decs"`
}

// walDecided is one decided id inside a checkpoint, in retention order.
type walDecided struct {
	ID  string   `json:"id"`
	Dec Decision `json:"dec"`
}

// walCkpt is the full-state snapshot that opens each journal generation.
type walCkpt struct {
	Seq     uint64       `json:"seq"`
	Stats   Stats        `json:"stats"`
	Decided []walDecided `json:"decided,omitempty"`
	Pending []walSub     `json:"pending,omitempty"`
}

// walRecord is the envelope every journal payload decodes into; exactly one
// of the pointers is set, matching T.
type walRecord struct {
	T    string   `json:"t"`
	Sub  *walSub  `json:"sub,omitempty"`
	Dec  *walDec  `json:"dec,omitempty"`
	Ckpt *walCkpt `json:"ckpt,omitempty"`
}

// walEncoder frames records into one reusable buffer, so a 1.5 MB snapshot
// costs no record-sized garbage once the buffer has grown to fit it. The
// slice encode returns is valid until the next encode.
type walEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encode frames one record; the returned slice includes the header. The
// payload bytes are exactly json.Marshal(rec).
func (e *walEncoder) encode(rec *walRecord) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	var hdr [walHeaderSize]byte
	e.buf.Write(hdr[:])
	if err := e.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("granting: journal encode: %w", err)
	}
	frame := e.buf.Bytes()
	frame = frame[:len(frame)-1] // Encode's trailing newline is not payload
	body := frame[walHeaderSize:]
	if len(body) > maxWALRecord {
		return nil, fmt.Errorf("granting: journal record %d bytes exceeds %d", len(body), maxWALRecord)
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(body, walCRC))
	return frame, nil
}

// decodeWALStream reads records until EOF or the first invalid record. It
// never fails on arbitrary bytes: a torn or corrupt tail ends the decode
// with truncated=true and valid holding the byte offset of the last good
// record boundary — exactly where a re-opened journal must truncate.
func decodeWALStream(r io.Reader) (recs []walRecord, valid int64, truncated bool) {
	var hdr [walHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF at a record boundary is a well-formed end; a
			// partial header is a torn tail.
			return recs, valid, !errors.Is(err, io.EOF)
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > maxWALRecord {
			return recs, valid, true
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return recs, valid, true
		}
		if crc32.Checksum(body, walCRC) != binary.BigEndian.Uint32(hdr[4:8]) {
			return recs, valid, true
		}
		var rec walRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return recs, valid, true
		}
		switch {
		case rec.T == "sub" && rec.Sub != nil && len(rec.Sub.IDs) == len(rec.Sub.Reqs) && len(rec.Sub.IDs) > 0:
		case rec.T == "dec" && rec.Dec != nil && len(rec.Dec.IDs) == len(rec.Dec.Decs) && len(rec.Dec.IDs) > 0:
		case rec.T == "ckpt" && rec.Ckpt != nil:
		default:
			// Unknown type or self-inconsistent record: replay cannot
			// interpret anything after it soundly, so stop here.
			return recs, valid, true
		}
		recs = append(recs, rec)
		valid += walHeaderSize + int64(n)
	}
}

// Recovered is the state replayed from a journal directory.
type Recovered struct {
	// Seq is the highest id counter observed; the service resumes above it.
	Seq uint64
	// Stats are the persistent counters as of the last journaled event.
	Stats Stats
	// Decided holds every decided request id with its exact decision,
	// oldest first (the retention order).
	Decided []walDecided
	// Pending holds accepted-but-undecided submissions in submit order;
	// the service re-queues and re-decides them deterministically.
	Pending []walSub
	// Records counts replayed records across all generations.
	Records int
	// Truncated reports that a torn or corrupt tail was dropped somewhere.
	Truncated bool
}

// walGen names one generation file.
func walGen(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen))
}

// listWALGens returns the generation numbers present in dir, ascending.
func listWALGens(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &g); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, nil
}

// applyWALRecord folds one record into the recovered state.
func (st *Recovered) applyWALRecord(rec *walRecord) {
	switch rec.T {
	case "ckpt":
		ck := rec.Ckpt
		st.Seq = ck.Seq
		st.Stats = ck.Stats
		st.Decided = append(st.Decided[:0], ck.Decided...)
		st.Pending = append(st.Pending[:0], ck.Pending...)
	case "sub":
		st.Pending = append(st.Pending, *rec.Sub)
		st.Stats.Submitted += int64(len(rec.Sub.IDs))
		st.bumpSeq(rec.Sub.IDs)
	case "dec":
		done := make(map[string]bool, len(rec.Dec.IDs))
		for _, id := range rec.Dec.IDs {
			done[id] = true
		}
		// A dec record always covers whole submissions (the decider pops
		// and decides complete groups), so pending entries fall away as
		// units; partial coverage keeps the submission queued.
		kept := st.Pending[:0]
		for _, p := range st.Pending {
			covered := true
			for _, id := range p.IDs {
				if !done[id] {
					covered = false
					break
				}
			}
			if !covered {
				kept = append(kept, p)
			}
		}
		st.Pending = kept
		// Checkpoints carry exact stats; events after the checkpoint fold
		// in here with the accounting publish() uses, so a crash recovers
		// the same counters a clean shutdown would have saved. (Memo
		// hit/miss counters stay checkpoint-only: the memo itself is
		// in-memory and rebuilt cold.)
		for i, id := range rec.Dec.IDs {
			st.Decided = append(st.Decided, walDecided{ID: id, Dec: rec.Dec.Decs[i]})
		}
		st.Stats.countDecided(rec.Dec.Decs)
		st.bumpSeq(rec.Dec.IDs)
	}
}

// bumpSeq advances the recovered id counter past every "g-<n>" id seen, so
// a restarted service never re-issues a journaled id.
func (st *Recovered) bumpSeq(ids []string) {
	for _, id := range ids {
		var n uint64
		if _, err := fmt.Sscanf(id, "g-%d", &n); err == nil && n > st.Seq {
			st.Seq = n
		}
	}
}

// ReplayWAL replays every journal generation in dir into a recovered state.
// A missing or empty directory recovers to zero state. Torn or corrupt
// tails truncate that generation's replay; a mid-sequence generation ending
// torn is tolerated because the next generation opens with a checkpoint
// that resets the state wholesale.
func ReplayWAL(dir string) (*Recovered, error) {
	st := &Recovered{}
	gens, err := listWALGens(dir)
	if err != nil {
		return nil, fmt.Errorf("granting: journal scan: %w", err)
	}
	for _, g := range gens {
		f, err := os.Open(walGen(dir, g))
		if err != nil {
			return nil, fmt.Errorf("granting: journal open: %w", err)
		}
		// Buffered: the decoder reads each record's header and body
		// separately, which on the bare file is two syscalls a record.
		recs, _, truncated := decodeWALStream(bufio.NewReader(f))
		f.Close()
		for i := range recs {
			st.applyWALRecord(&recs[i])
		}
		st.Records += len(recs)
		if truncated {
			st.Truncated = true
			mJournalReplayTruncations.Inc()
		}
	}
	mJournalReplayRecords.Add(int64(st.Records))
	return st, nil
}

// walFile is what the journal needs of a generation file.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is the service's append handle. Every method but awaitCommitSlot
// and commit is called with the service mutex held (the service serializes
// submitters, the decider and the committer), so the Journal itself carries
// no lock.
type Journal struct {
	dir       string
	policy    FsyncPolicy
	ckptEvery int64
	create    func(path string) (walFile, error)
	gen       uint64
	f         walFile
	size      int64 // bytes appended to the current generation after its snapshot
	rotateAt  int64 // size at which the next checkpoint is due
	enc       walEncoder
	lastSlot  time.Time // the latest commit slot (FsyncBatch)
}

// openJournal replays dir, then begins a fresh generation with a checkpoint
// of the recovered state — so the torn tail of a crashed generation is
// never appended to, and restart cost stays bounded by the snapshot size.
func openJournal(o WALOptions) (*Journal, *Recovered, error) {
	o = o.withDefaults()
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("granting: journal dir: %w", err)
	}
	st, err := ReplayWAL(o.Dir)
	if err != nil {
		return nil, nil, err
	}
	gens, err := listWALGens(o.Dir)
	if err != nil {
		return nil, nil, err
	}
	var next uint64 = 1
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	j := &Journal{dir: o.Dir, policy: o.Fsync, ckptEvery: o.CheckpointBytes, create: o.create, gen: next - 1}
	if err := j.checkpoint(&walCkpt{
		Seq:     st.Seq,
		Stats:   st.Stats,
		Decided: st.Decided,
		Pending: st.Pending,
	}); err != nil {
		return nil, nil, err
	}
	return j, st, nil
}

// sync fsyncs f and counts the call.
func (j *Journal) sync(f walFile) error {
	if err := f.Sync(); err != nil {
		return fmt.Errorf("granting: journal sync: %w", err)
	}
	mJournalFsyncs.Inc()
	return nil
}

// append frames rec, writes it to the current generation, and under
// FsyncAlways syncs it.
func (j *Journal) append(rec *walRecord) error {
	buf, err := j.enc.encode(rec)
	if err != nil {
		mJournalErrors.Inc()
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal append: %w", err)
	}
	j.size += int64(len(buf))
	mJournalRecords.With(rec.T).Inc()
	mJournalBytes.Add(int64(len(buf)))
	if j.policy == FsyncAlways {
		if err := j.sync(j.f); err != nil {
			mJournalErrors.Inc()
			return err
		}
	}
	return nil
}

// appendSub journals one accepted submission. Under FsyncAlways the record
// is durable before Submit returns; under weaker policies a crash may shed
// it (the caller never saw an id either way the decision goes).
func (j *Journal) appendSub(ids []string, reqs []Request) error {
	return j.append(&walRecord{T: "sub", Sub: &walSub{IDs: ids, Reqs: reqs}})
}

// appendDec journals one decided batch. FsyncAlways syncs it here; under
// FsyncBatch the service publishes the decisions only after the commit that
// covers the record, so either way a decision the caller observed survives
// a crash.
func (j *Journal) appendDec(sig string, ids []string, decs []Decision) error {
	return j.append(&walRecord{T: "dec", Dec: &walDec{Sig: sig, IDs: ids, Decs: decs}})
}

// commitInterval is the commit cadence under FsyncBatch: the journal opens
// one commit slot per interval, and one sync at the slot covers every dec
// record staged since the last one. A fixed cadence rather than a sync per
// decision bounds the sustained fsync rate at 500/s however many submitters
// there are, and makes a closed loop of back-to-back submitters advance one
// decision each per slot instead of at the pace of the disk and the
// scheduler. 2 ms is about 1.6x what a memoized decision needs to get from a
// released waiter back into the journal over loopback plus the sync itself
// (see EXPERIMENTS.md, "Decision journal" J3), so such submitters make every
// slot with room to spare.
const commitInterval = 2 * time.Millisecond

// commitBurst is how many unused slots the schedule keeps: a journal that has
// been quiet, or held up (a checkpoint takes 10-25 ms), commits that many
// groups as they come before the cadence applies again. So a request after a
// quiet spell is not delayed at all, a short burst from one submitter is not
// paced, and time lost to a stall is made up instead of lowering the rate.
const commitBurst = 16

// awaitCommitSlot blocks until the next commit slot: one interval after the
// previous one, but no further back than commitBurst intervals ago. Slots
// advance on their schedule, not on when the committer woke, so neither
// wake-up latency nor a stall stretches the cadence. Committer only.
func (j *Journal) awaitCommitSlot() {
	slot := j.lastSlot.Add(commitInterval)
	if oldest := time.Now().Add(-commitBurst * commitInterval); slot.Before(oldest) {
		slot = oldest
	}
	sleepUntil(slot)
	j.lastSlot = slot
}

// commit syncs the current generation, making every record written so far
// durable. It is called without the service mutex (appends may go on beside
// it; only the caller's goroutine rotates) and counts its own failures.
func (j *Journal) commit() {
	if err := j.sync(j.f); err != nil {
		mJournalErrors.Inc()
	}
}

// needCheckpoint reports whether the log appended after the generation's
// snapshot has reached the rotation bound, max(CheckpointBytes, snapshot
// bytes): the snapshot is rewritten only once as many bytes of records have
// followed it, so write amplification and replay size both stay within 2x
// of the log however large Retain makes the snapshot.
func (j *Journal) needCheckpoint() bool { return j.size >= j.rotateAt }

// checkpoint rotates to a new generation: write the snapshot record into
// the next generation's file, sync it (unless FsyncNone), and only then
// switch appends over and delete every older generation — a crash at any
// point replays a generation that opens with a complete snapshot. If the
// new generation cannot be written the journal keeps appending to the
// current one, which stays the replay source; the failure is counted and
// the rotation retried after another CheckpointBytes of log.
func (j *Journal) checkpoint(ck *walCkpt) error {
	gen := j.gen + 1
	buf, err := j.enc.encode(&walRecord{T: "ckpt", Ckpt: ck})
	var f walFile
	if err == nil {
		f, err = j.writeGeneration(walGen(j.dir, gen), buf)
	}
	if err != nil {
		mJournalErrors.Inc()
		j.rotateAt = j.size + j.ckptEvery
		return err
	}
	old := j.f
	j.f, j.gen, j.size = f, gen, 0
	j.rotateAt = max(j.ckptEvery, int64(len(buf)))
	mJournalRecords.With("ckpt").Inc()
	mJournalBytes.Add(int64(len(buf)))
	mJournalCheckpoints.Inc()
	if j.policy != FsyncNone {
		if d, derr := os.Open(j.dir); derr == nil {
			d.Sync()
			d.Close()
		}
	}
	if old != nil {
		old.Close()
	}
	gens, err := listWALGens(j.dir)
	if err != nil {
		return nil // pruning is best-effort; replay tolerates extra gens
	}
	for _, g := range gens {
		if g < gen {
			os.Remove(walGen(j.dir, g))
		}
	}
	return nil
}

// writeGeneration creates path holding exactly the framed snapshot, durable
// unless FsyncNone. On failure nothing of the file is left behind.
func (j *Journal) writeGeneration(path string, snapshot []byte) (walFile, error) {
	f, err := j.create(path)
	if err != nil {
		return nil, fmt.Errorf("granting: journal rotate: %w", err)
	}
	if _, err = f.Write(snapshot); err != nil {
		err = fmt.Errorf("granting: journal rotate: %w", err)
	} else if j.policy != FsyncNone {
		err = j.sync(f)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// Close syncs and closes the current generation.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	if j.policy != FsyncNone {
		j.f.Sync()
	}
	err := j.f.Close()
	j.f = nil
	return err
}
