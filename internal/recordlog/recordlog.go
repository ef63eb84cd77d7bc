// Package recordlog is the one crash-consistent record log in the tree: the
// on-disk record format, the generation files a log is kept in, and the
// rotating log under grantd's decision journal and contractdb's contract log.
// (The incident black box writes single capture files: it uses the format and
// the file naming only.) DESIGN.md §11 "Record log" is the prose version.
//
// A record is one JSON document framed as (all integers big-endian):
//
//	4 bytes  payload length n (0 < n <= MaxRecord)
//	4 bytes  CRC-32C (Castagnoli) of the payload
//	n bytes  payload
//
// A crash can tear a file's tail at any byte, so readers keep the valid
// prefix (Scan). The package takes no policy decisions and registers no
// metrics: when to sync, how often to commit and what to count stay with each
// caller.
package recordlog

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
	"slices"
	"strconv"
	"strings"
)

// MaxRecord bounds one record's payload; a length prefix beyond it marks a
// corrupt (or torn) tail. Matches the wire layer's frame bound.
const MaxRecord = 16 << 20

// HeaderSize is the fixed per-record framing overhead.
const HeaderSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder frames records into one reusable buffer, so a 1.5 MB snapshot costs
// no record-sized garbage once the buffer has grown to fit it. The zero value
// is ready to use.
type Encoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// Encode frames one record. The returned slice includes the header, its
// payload is exactly json.Marshal(rec), and it is valid until the next Encode.
func (e *Encoder) Encode(rec any) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	var hdr [HeaderSize]byte
	e.buf.Write(hdr[:])
	if err := e.enc.Encode(rec); err != nil {
		return nil, fmt.Errorf("recordlog: encode: %w", err)
	}
	frame := e.buf.Bytes()
	frame = frame[:len(frame)-1] // Encode's trailing newline is not payload
	body := frame[HeaderSize:]
	if len(body) > MaxRecord {
		return nil, fmt.Errorf("recordlog: record of %d bytes exceeds %d", len(body), MaxRecord)
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(body, castagnoli))
	return frame, nil
}

// Scan reads records from r until EOF or the first invalid one, handing each
// checksummed payload to accept; accept returns false for a payload its log
// cannot interpret, which ends the valid prefix like a bad checksum does
// (nothing after it can be applied soundly). valid is the offset of the last
// good record boundary, truncated whether anything but a clean EOF on such a
// boundary ended the scan. The payload slice is reused between calls.
func Scan(r io.Reader, accept func(payload []byte) bool) (valid int64, truncated bool) {
	var hdr [HeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// A partial header is a torn tail; none at all is the end.
			return valid, !errors.Is(err, io.EOF)
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > MaxRecord {
			return valid, true
		}
		if uint32(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return valid, true
		}
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) || !accept(body) {
			return valid, true
		}
		valid += HeaderSize + int64(n)
	}
}

// Names maps generation numbers to file names: Prefix, the number as sixteen
// zero-padded decimal digits, Suffix.
type Names struct{ Prefix, Suffix string }

// Path is the file holding generation gen in dir.
func (n Names) Path(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", n.Prefix, gen, n.Suffix))
}

// Parse recovers the generation from a file name. Only names that Path would
// produce are accepted, so a copy set aside (wal-….log.bak) or a hand-made
// short number is not mistaken for a generation.
func (n Names) Parse(name string) (uint64, bool) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, n.Prefix), n.Suffix)
	gen, err := strconv.ParseUint(digits, 10, 64)
	return gen, err == nil && name == filepath.Base(n.Path("", gen))
}

// List returns the generations present in dir as regular files, ascending. A
// missing directory holds none.
func (n Names) List(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if gen, ok := n.Parse(e.Name()); ok && e.Type().IsRegular() {
			gens = append(gens, gen)
		}
	}
	slices.Sort(gens)
	return gens, nil
}

// Replay scans every generation in dir, oldest first, through accept (see
// Scan), each in one buffered pass. It returns how many generations ended in
// a torn or corrupt tail. One in mid-sequence is tolerated because the next
// generation opens with a snapshot that replaces the state wholesale.
func Replay(dir string, names Names, accept func(payload []byte) bool) (truncated int, err error) {
	gens, err := names.List(dir)
	if err != nil {
		return 0, fmt.Errorf("recordlog: scan %s: %w", dir, err)
	}
	for _, gen := range gens {
		f, err := os.Open(names.Path(dir, gen))
		if err != nil {
			return truncated, fmt.Errorf("recordlog: open: %w", err)
		}
		// Buffered: Scan reads each record's header and body separately,
		// which on the bare file is two syscalls a record.
		_, torn := Scan(bufio.NewReader(f), accept)
		f.Close()
		if torn {
			truncated++
		}
	}
	return truncated, nil
}

// File is what the log needs of a generation file.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Log appends records to the newest generation in a directory and rotates to
// a new one, opened by a snapshot record, when asked. It carries no lock: the
// caller serializes Append, Rotate and Close; Sync may run beside Append as
// long as the goroutine that syncs is also the one that rotates.
type Log struct {
	dir      string
	names    Names
	bound    int64
	create   func(path string) (File, error)
	gen      uint64
	f        File  // nil until the first Rotate
	size     int64 // bytes appended to the current generation after its snapshot
	rotateAt int64 // size at which the next rotation is due
	enc      Encoder
}

// Open prepares a log over dir (created if absent) numbered after the newest
// generation there. Nothing is appended to what a previous process left —
// its tail may be torn — so the caller replays dir and then begins a fresh
// generation with Rotate before the first Append. bound is the rotation
// bound (see Due). create makes an empty generation file and is the seam the
// crash tests inject faults through; nil creates it on disk.
func Open(dir string, names Names, bound int64, create func(path string) (File, error)) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recordlog: dir: %w", err)
	}
	gens, err := names.List(dir)
	if err != nil {
		return nil, fmt.Errorf("recordlog: scan %s: %w", dir, err)
	}
	if create == nil {
		create = createFile
	}
	l := &Log{dir: dir, names: names, bound: bound, create: create}
	if len(gens) > 0 {
		l.gen = gens[len(gens)-1]
	}
	return l, nil
}

// createFile creates (or empties) a generation file on disk.
func createFile(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Append frames rec and writes it to the current generation, returning the
// bytes written. It does not sync.
func (l *Log) Append(rec any) (int, error) {
	frame, err := l.enc.Encode(rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("recordlog: append: %w", err)
	}
	l.size += int64(len(frame))
	return len(frame), nil
}

// Sync makes every record written to the current generation durable.
func (l *Log) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("recordlog: sync: %w", err)
	}
	return nil
}

// Due reports whether the records appended after the generation's snapshot
// have reached max(bound, snapshot bytes): the snapshot is rewritten only
// once as many bytes of records have followed it, so write amplification and
// replay size both stay within 2x of the log however large the snapshot is.
func (l *Log) Due() bool { return l.size >= l.rotateAt }

// Rotate starts a new generation: the snapshot record is written into the
// next generation's file and (when durable — a caller that never syncs passes
// false) synced, and only then do appends switch over, the directory is
// synced and every older generation deleted — a crash at any point replays a
// generation that opens with a complete snapshot. If the new file cannot be
// created, written or synced, nothing of it is left behind and the log keeps
// appending to the current generation, which stays the replay source; the
// rotation falls due again after another bound of log. Returns the snapshot's
// framed size.
func (l *Log) Rotate(snapshot any, durable bool) (int, error) {
	path := l.names.Path(l.dir, l.gen+1)
	frame, err := l.enc.Encode(snapshot)
	var f File
	if err == nil {
		f, err = l.create(path)
	}
	if err == nil {
		if _, err = f.Write(frame); err == nil && durable {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			os.Remove(path)
		}
	}
	if err != nil {
		l.rotateAt = l.size + l.bound
		return 0, fmt.Errorf("recordlog: rotate: %w", err)
	}
	old := l.f
	l.f, l.gen, l.size = f, l.gen+1, 0
	l.rotateAt = max(l.bound, int64(len(frame)))
	if durable {
		if d, err := os.Open(l.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	if old != nil {
		old.Close()
	}
	// Pruning is best-effort: replay tolerates extra generations.
	gens, _ := l.names.List(l.dir)
	for _, g := range gens {
		if g < l.gen {
			os.Remove(l.names.Path(l.dir, g))
		}
	}
	return len(frame), nil
}

// Close closes the current generation without syncing it.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
