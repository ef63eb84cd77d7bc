// The write-ahead decision journal: grantd is the system of record for every
// entitlement, so an accepted submission and a decided batch must both
// survive a crash. The journal is a recordlog.Log (framing, generation files
// wal-%016d.log, valid-prefix replay and rotation live there; DESIGN.md §11):
// a checkpoint record opens each generation with a full state snapshot, so
// replay is "latest checkpoint + everything after it" and old generations can
// be deleted. Each payload is one JSON-encoded walRecord:
//
//	sub   submission accepted: ids + validated requests (StartUnix pinned)
//	dec   batch decided: canonical batch signature + per-request decisions
//	ckpt  checkpoint: id counter, stats, decided table, pending submissions
//
// Recovery invariants (pinned by the crash property test):
//
//   - Replay tolerates a torn tail: it keeps the valid prefix, which also
//     ends at a record of unknown type or inconsistent shape, and never fails
//     or panics on arbitrary bytes (FuzzJournalReplay).
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
	"encoding/json"
	"fmt"
	"time"

	"entitlement/internal/recordlog"
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
	// and replay size within 2x of the log however large the snapshot
	// grows. Default 1 MiB.
	CheckpointBytes int64

	// create makes an empty generation file; nil creates it on disk. The
	// crash tests substitute files that fail on cue and record what a
	// completed sync covers.
	create func(path string) (recordlog.File, error)
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Fsync == "" {
		o.Fsync = FsyncBatch
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 1 << 20
	}
	return o
}

// walNames names the journal's generation files.
var walNames = recordlog.Names{Prefix: "wal-", Suffix: ".log"}

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

// decodeWALRecord parses one journal payload. A record of unknown type or
// inconsistent with itself is rejected: replay cannot interpret anything
// after it soundly, so it ends the valid prefix.
func decodeWALRecord(payload []byte) (*walRecord, bool) {
	rec := new(walRecord)
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, false
	}
	switch {
	case rec.T == "sub" && rec.Sub != nil && len(rec.Sub.IDs) == len(rec.Sub.Reqs) && len(rec.Sub.IDs) > 0:
	case rec.T == "dec" && rec.Dec != nil && len(rec.Dec.IDs) == len(rec.Dec.Decs) && len(rec.Dec.IDs) > 0:
	case rec.T == "ckpt" && rec.Ckpt != nil:
	default:
		return nil, false
	}
	return rec, true
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
// A missing or empty directory recovers to zero state; a generation's torn or
// corrupt tail truncates that generation's replay only.
func ReplayWAL(dir string) (*Recovered, error) {
	st := &Recovered{}
	truncated, err := recordlog.Replay(dir, walNames, func(payload []byte) bool {
		rec, ok := decodeWALRecord(payload)
		if ok {
			st.applyWALRecord(rec)
			st.Records++
		}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("granting: journal replay: %w", err)
	}
	st.Truncated = truncated > 0
	mJournalReplayTruncations.Add(int64(truncated))
	mJournalReplayRecords.Add(int64(st.Records))
	return st, nil
}

// Journal is the service's append handle. Every method but awaitCommitSlot
// and commit is called with the service mutex held (the service serializes
// submitters, the decider and the committer), so the Journal itself carries
// no lock.
type Journal struct {
	log      *recordlog.Log
	policy   FsyncPolicy
	lastSlot time.Time // the latest commit slot (FsyncBatch)
}

// openJournal replays dir, then begins a fresh generation with a checkpoint
// of the recovered state — so the torn tail of a crashed generation is
// never appended to, and restart cost stays bounded by the snapshot size.
func openJournal(o WALOptions) (*Journal, *Recovered, error) {
	o = o.withDefaults()
	st, err := ReplayWAL(o.Dir)
	if err != nil {
		return nil, nil, err
	}
	log, err := recordlog.Open(o.Dir, walNames, o.CheckpointBytes, o.create)
	if err != nil {
		return nil, nil, fmt.Errorf("granting: journal: %w", err)
	}
	j := &Journal{log: log, policy: o.Fsync}
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

// sync makes the current generation durable and counts the call.
func (j *Journal) sync() error {
	err := j.log.Sync()
	if err == nil {
		mJournalFsyncs.Inc()
	}
	return err
}

// append frames rec, writes it to the current generation, and under
// FsyncAlways syncs it.
func (j *Journal) append(rec *walRecord) error {
	n, err := j.log.Append(rec)
	if err == nil {
		mJournalRecords.With(rec.T).Inc()
		mJournalBytes.Add(int64(n))
		if j.policy == FsyncAlways {
			err = j.sync()
		}
	}
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal: %w", err)
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
	if err := j.sync(); err != nil {
		mJournalErrors.Inc()
	}
}

// needCheckpoint reports whether the next checkpoint is due: the records
// appended after the generation's snapshot outweigh max(CheckpointBytes,
// snapshot bytes) — recordlog.Log.Due has the reasoning.
func (j *Journal) needCheckpoint() bool { return j.log.Due() }

// checkpoint rotates to a new generation opened by ck, durable unless
// FsyncNone, and prunes the older ones. If the new generation cannot be
// written the journal keeps appending to the current one, which stays the
// replay source; the failure is counted and the rotation retried after
// another CheckpointBytes of log.
func (j *Journal) checkpoint(ck *walCkpt) error {
	durable := j.policy != FsyncNone
	n, err := j.log.Rotate(&walRecord{T: "ckpt", Ckpt: ck}, durable)
	if err != nil {
		mJournalErrors.Inc()
		return fmt.Errorf("granting: journal: %w", err)
	}
	mJournalRecords.With("ckpt").Inc()
	mJournalBytes.Add(int64(n))
	mJournalCheckpoints.Inc()
	if durable {
		mJournalFsyncs.Inc()
	}
	return nil
}

// Close syncs and closes the current generation.
func (j *Journal) Close() error {
	if j.policy != FsyncNone {
		j.log.Sync()
	}
	return j.log.Close()
}
