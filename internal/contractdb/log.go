package contractdb

import (
	"encoding/json"
	"fmt"

	"entitlement/internal/contract"
	"entitlement/internal/recordlog"
)

// The contract log: a recordlog.Log (framing, generation files
// contracts-%016d.log, valid-prefix replay and rotation live there; DESIGN.md
// §11) of JSON-encoded logRecords. A "snap" record opens each generation with
// every contract, "put" and "del" follow it. One policy, no knob: a mutation
// is appended and fsynced before it is acknowledged.

// logRecord is the envelope every log payload decodes into.
type logRecord struct {
	T    string              `json:"t"`
	Put  *contract.Contract  `json:"put,omitempty"`
	Del  contract.NPG        `json:"del,omitempty"`
	Snap []contract.Contract `json:"snap,omitempty"`
}

var logNames = recordlog.Names{Prefix: "contracts-", Suffix: ".log"}

// logBound is the rotation bound: the log is compacted into a snapshot once
// max(logBound, snapshot bytes) of mutations have followed the last one.
const logBound = 1 << 20

// Recovery is what OpenStore found on disk.
type Recovery struct {
	// Records counts replayed records across all generations.
	Records int
	// Truncated reports that a torn or corrupt tail was dropped somewhere.
	Truncated bool
}

// OpenStore opens the durable contract database kept in dir (created if
// absent): it replays the log there, then begins a fresh generation with a
// snapshot of what it recovered, so a crashed generation's torn tail is
// never appended to. A torn, corrupt or foreign file never prevents start-up.
func OpenStore(dir string) (*Store, error) { return openStore(dir, logBound, nil) }

// openStore is OpenStore with the rotation bound and file-creation seam the
// crash tests vary.
func openStore(dir string, bound int64, create func(path string) (recordlog.File, error)) (*Store, error) {
	s := NewStore()
	truncated, err := recordlog.Replay(dir, logNames, s.replay)
	if err == nil {
		s.log, err = recordlog.Open(dir, logNames, bound, create)
	}
	if err == nil {
		err = s.rotateLocked()
	}
	if err != nil {
		return nil, fmt.Errorf("contractdb: open %s: %w", dir, err)
	}
	s.recovery.Truncated = truncated > 0
	mLogReplayTruncations.Add(int64(truncated))
	return s, nil
}

// Recovery reports what OpenStore replayed.
func (s *Store) Recovery() Recovery { return s.recovery }

// replay applies one logged record. Every contract is validated again; an
// invalid one, like an unknown record type, leaves the store as it was and
// ends the log's valid prefix.
func (s *Store) replay(payload []byte) bool {
	var rec logRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return false
	}
	switch {
	case rec.T == "put" && rec.Put != nil && rec.Put.Validate() == nil:
	case rec.T == "del" && rec.Del != "":
	case rec.T == "snap":
		for i := range rec.Snap {
			if rec.Snap[i].Validate() != nil {
				return false
			}
		}
	default:
		return false
	}
	s.apply(&rec)
	s.recovery.Records++
	return true
}

// apply folds one valid record into the map. s.mu must be held (or the store
// not yet shared).
func (s *Store) apply(rec *logRecord) {
	switch rec.T {
	case "put":
		s.contracts[rec.Put.NPG] = *rec.Put
	case "del":
		delete(s.contracts, rec.Del)
	case "snap":
		s.contracts = make(map[contract.NPG]contract.Contract, len(rec.Snap))
		for _, c := range rec.Snap {
			s.contracts[c.NPG] = c
		}
	}
}

// logged makes rec durable and then visible, in that order. The log lock is
// held across both, so the map changes in log order.
func (s *Store) logged(rec *logRecord) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	s.mu.Lock()
	s.apply(rec)
	s.mu.Unlock()
	if s.log.Due() {
		s.rotateLocked() // counts its own failure; the log falls back and retries
	}
	return nil
}

// appendLocked makes rec durable. After a failed write or sync the current
// generation may end in a partial record, which would hide everything
// appended after it from replay — so the next mutation first rotates to a
// clean generation, and fails if it cannot. s.logMu must be held.
func (s *Store) appendLocked(rec *logRecord) error {
	if s.torn {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := s.log.Append(rec)
	if err == nil {
		mLogRecords.With(rec.T).Inc()
		mLogBytes.Add(int64(n))
		err = s.log.Sync()
	}
	if err != nil {
		s.torn = true
		mLogErrors.Inc()
		return fmt.Errorf("contractdb: log: %w", err)
	}
	mLogFsyncs.Inc()
	return nil
}

// rotateLocked compacts the log into a new generation opened by a snapshot
// of the store. s.logMu must be held (or the store not yet shared).
func (s *Store) rotateLocked() error {
	n, err := s.log.Rotate(&logRecord{T: "snap", Snap: s.List()}, true)
	if err != nil {
		mLogErrors.Inc()
		return fmt.Errorf("contractdb: log: %w", err)
	}
	s.torn = false
	mLogRecords.With("snap").Inc()
	mLogBytes.Add(int64(n))
	mLogFsyncs.Inc()
	return nil
}

// Close releases the log of a durable store (every acknowledged mutation is
// already on disk); a memory-only store has nothing to release. The store
// must not be mutated afterwards.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
