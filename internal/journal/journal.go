// Package journal is the crash-safe run checkpoint of the experiment
// engine: an append-only JSONL file of completed (drop, scheme) cell
// results that lets a multi-hour figure sweep survive a crash, an
// OOM-kill, or a Ctrl-C and resume exactly where it stopped.
//
// Durability model: one record per line, each line carrying its own
// CRC32 so partial writes are detectable, and the file is fsynced
// after every cell record — a record that Record has returned for is on
// disk. The reader tolerates exactly one torn final line (the one a
// crash mid-write produces): it truncates the file back to the last
// intact record and continues. Anything else — a checksum mismatch on
// an interior line, garbage where a record should be, a header for a
// different configuration — is corruption or misuse and surfaces as a
// typed error, never a panic (fuzz-backed).
//
// The journal itself is payload-agnostic: cells carry opaque JSON and
// the header carries a caller-computed canonical config hash, so this
// package depends only on the standard library and the experiment
// engine owns the trajectory codec and hash definition.
//
// File format (one record per line):
//
//	crc32hex SP json LF
//
// where crc32hex is the 8-hex-digit IEEE CRC32 of the json bytes. The
// first record is the header; every following record is a cell.
// Duplicate (drop, scheme) cells are legal (a rewritten checkpoint, a
// re-run cell) and resolve last-write-wins, deterministically.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

// Schema identifies the journal file layout; bump the suffix on
// breaking changes so old checkpoints are rejected instead of
// misread.
const Schema = "mmwalign/journal/v1"

// Header is the journal's first record: everything needed to decide
// whether resuming from this file is safe.
type Header struct {
	// Schema is the journal format identifier (Schema).
	Schema string `json:"schema"`
	// Figure is the figure the run regenerates ("fig5".."fig8"); a
	// journal never resumes across figures even when their configs
	// hash identically (fig5 and fig7 share a config but aggregate
	// differently).
	Figure string `json:"figure"`
	// ConfigHash is the canonical hash of the fully defaulted
	// experiment configuration (experiment.Config.CanonicalHash). A
	// resume with a different hash is refused with *MismatchError.
	ConfigHash string `json:"config_hash"`
	// Version identifies the engine that wrote the journal
	// (sweep.VersionString); informational — results are
	// config-determined, so a version drift warns but does not refuse.
	Version string `json:"version,omitempty"`
	// Seed and Drops restate the run shape for inspection tooling.
	Seed  int64 `json:"seed"`
	Drops int   `json:"drops"`
	// Schemes lists the configured strategy names.
	Schemes []string `json:"schemes,omitempty"`
	// CreatedAt is the RFC 3339 UTC creation timestamp (informational).
	CreatedAt string `json:"created_at,omitempty"`
}

// CellKey identifies one (drop, scheme) cell.
type CellKey struct {
	// Drop is the channel-realization index.
	Drop int `json:"drop"`
	// Scheme is the strategy name.
	Scheme string `json:"scheme"`
}

// cellRecord is the on-disk form of one completed cell.
type cellRecord struct {
	Drop    int             `json:"drop"`
	Scheme  string          `json:"scheme"`
	Payload json.RawMessage `json:"payload"`
}

// record is the line-level envelope distinguishing header from cell
// lines.
type record struct {
	Kind   string      `json:"kind"` // "header" | "cell"
	Header *Header     `json:"header,omitempty"`
	Cell   *cellRecord `json:"cell,omitempty"`
}

// MismatchError reports a journal whose header does not match the run
// attempting to resume from it — a changed config, a different figure,
// or an unknown schema. Resuming would silently mix results from two
// different experiments, so the reader refuses.
type MismatchError struct {
	// Field names what differed ("schema", "figure", "config_hash").
	Field string
	// Want and Got are the expected and on-disk values.
	Want, Got string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("journal: %s mismatch: journal has %q, run expects %q — refusing to resume across a changed configuration", e.Field, e.Got, e.Want)
}

// ChecksumError reports an interior record whose CRC32 does not match
// its payload: on-disk corruption, not a torn tail.
type ChecksumError struct {
	// Line is the 1-based line number of the corrupt record.
	Line int
	// Want and Got are the recorded and recomputed CRC32 values.
	Want, Got uint32
}

// Error implements error.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("journal: line %d checksum mismatch (recorded %08x, computed %08x): journal is corrupt", e.Line, e.Want, e.Got)
}

// CorruptError reports a structurally invalid journal: an unparseable
// interior line, a missing or malformed header, or a record of an
// unknown kind.
type CorruptError struct {
	// Line is the 1-based line number (0 when the file as a whole is
	// malformed, e.g. empty).
	Line int
	// Reason describes what was wrong.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("journal: line %d: %s", e.Line, e.Reason)
	}
	return fmt.Sprintf("journal: %s", e.Reason)
}

// Journal is an open checkpoint: the loaded set of completed cells plus
// an append handle for recording new ones. All methods are safe for
// concurrent use by the experiment engine's drop workers.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	header  Header
	cells   map[CellKey]json.RawMessage
	closed  bool
	release func() // owner lock release; nil after Close
}

// crcTable is the IEEE polynomial every record checksum uses.
var crcTable = crc32.IEEETable

// encodeLine renders one record as its durable line form.
func encodeLine(rec record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// Create starts a fresh journal at path (truncating any existing
// file), writes the header record, and syncs it to disk. The journal's
// owner lock is acquired first: a second process holding the same path
// open gets *LockedError instead of truncating a live journal.
func Create(path string, h Header) (*Journal, error) {
	h.Schema = Schema
	release, err := acquireOwnerLock(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		release()
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, header: h, cells: make(map[CellKey]json.RawMessage), release: release}
	line, err := encodeLine(record{Kind: "header", Header: &h})
	if err != nil {
		f.Close()
		release()
		return nil, err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		release()
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		release()
		return nil, fmt.Errorf("journal: syncing header: %w", err)
	}
	return j, nil
}

// Open loads an existing journal for resumption. The journal's owner
// lock is acquired first (*LockedError when another live process holds
// it; a dead holder's lock is taken over). The on-disk header must
// match want on schema, figure, and config hash (*MismatchError
// otherwise); completed cells are loaded last-write-wins; a torn final
// line is truncated away so the journal is immediately appendable. Any
// interior corruption surfaces as *ChecksumError or *CorruptError.
func Open(path string, want Header) (*Journal, error) {
	release, err := acquireOwnerLock(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		release()
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	h, cells, _, goodEnd, err := readAll(f)
	if err != nil {
		f.Close()
		release()
		return nil, err
	}
	if h.Figure != want.Figure {
		f.Close()
		release()
		return nil, &MismatchError{Field: "figure", Want: want.Figure, Got: h.Figure}
	}
	if h.ConfigHash != want.ConfigHash {
		f.Close()
		release()
		return nil, &MismatchError{Field: "config_hash", Want: want.ConfigHash, Got: h.ConfigHash}
	}
	// Drop the torn tail (if any) so appended records start on a clean
	// line boundary.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		release()
		return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		release()
		return nil, fmt.Errorf("journal: seeking %s: %w", path, err)
	}
	return &Journal{f: f, path: path, header: *h, cells: cells, release: release}, nil
}

// CellStat describes one completed cell as seen by Inspect: its key
// plus how many records the journal holds for it (more than one means
// the cell was re-run — a resumed retry or a stolen shard lease — and
// resolved last-write-wins).
type CellStat struct {
	CellKey
	// Records is the number of journal lines recorded for this cell.
	Records int
}

// Inspect reads a journal without a configuration to validate against:
// the header, the completed cells with their record counts (sorted
// drop-major), and whether a torn tail was dropped. Used by the
// checkpoint-inspect tooling to decide whether a resume is safe before
// committing to one. The file is not modified and the owner lock is
// not taken, so a live run can be inspected.
func Inspect(path string) (Header, []CellStat, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	h, cells, counts, goodEnd, err := readAll(f)
	if err != nil {
		return Header{}, nil, false, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("journal: sizing %s: %w", path, err)
	}
	stats := make([]CellStat, 0, len(cells))
	for k := range cells {
		stats = append(stats, CellStat{CellKey: k, Records: counts[k]})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Drop != stats[j].Drop {
			return stats[i].Drop < stats[j].Drop
		}
		return stats[i].Scheme < stats[j].Scheme
	})
	return *h, stats, goodEnd < size, nil
}

// Load reads a journal's header and completed cells without taking the
// owner lock or modifying the file — the shard merge step's read path,
// safe to run against a worker journal whose owner is still alive. The
// returned map resolves duplicates last-write-wins; torn reports
// whether a torn final line was skipped.
func Load(path string) (Header, map[CellKey]json.RawMessage, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	h, cells, _, goodEnd, err := readAll(f)
	if err != nil {
		return Header{}, nil, false, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return Header{}, nil, false, fmt.Errorf("journal: sizing %s: %w", path, err)
	}
	return *h, cells, goodEnd < size, nil
}

// readAll parses the journal from the start of r: header, cells
// (last-write-wins) with per-cell record counts, and the byte offset
// just past the last intact record. A torn final line — no trailing
// newline, or a final line whose CRC or JSON does not check out — is
// tolerated by reporting a goodEnd before it; every interior defect is
// a typed error.
func readAll(r io.ReadSeeker) (*Header, map[CellKey]json.RawMessage, map[CellKey]int, int64, error) {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("journal: seeking start: %w", err)
	}
	br := bufio.NewReader(r)
	var (
		header  *Header
		cells   = make(map[CellKey]json.RawMessage)
		counts  = make(map[CellKey]int)
		goodEnd int64
		lineNo  int
	)
	for {
		line, err := br.ReadBytes('\n')
		lineNo++
		torn := false
		if err == io.EOF {
			if len(line) == 0 {
				break
			}
			torn = true // no trailing newline: a crash mid-write
		} else if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("journal: reading line %d: %w", lineNo, err)
		}
		rec, perr := parseLine(line, lineNo)
		if perr != nil {
			if torn {
				// The torn final line is expected damage: drop it.
				break
			}
			// A complete (newline-terminated) final line may still be
			// torn mid-line by a crash that happened to land a stray
			// newline; only a checksum/parse failure on the very last
			// line is forgivable. Peek: if more input follows, the
			// defect is interior and fatal.
			if _, peekErr := br.Peek(1); peekErr == io.EOF {
				break
			}
			return nil, nil, nil, 0, perr
		}
		if torn {
			// Even a record that parses and checksums but lacks its
			// newline is dropped (goodEnd stays before it): truncating
			// to the previous line boundary and re-running one cell is
			// strictly safer than appending onto an unterminated line.
			break
		}
		switch rec.Kind {
		case "header":
			if header != nil {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "duplicate header record"}
			}
			if lineNo != 1 {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "header record after cell records"}
			}
			if rec.Header == nil {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "header record without header body"}
			}
			if rec.Header.Schema != Schema {
				return nil, nil, nil, 0, &MismatchError{Field: "schema", Want: Schema, Got: rec.Header.Schema}
			}
			header = rec.Header
		case "cell":
			if header == nil {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "cell record before header"}
			}
			if rec.Cell == nil {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "cell record without cell body"}
			}
			if rec.Cell.Drop < 0 || rec.Cell.Scheme == "" {
				return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: "cell record with invalid coordinates"}
			}
			// Last-write-wins: a later record for the same cell
			// supersedes the earlier one, deterministically (file order).
			key := CellKey{Drop: rec.Cell.Drop, Scheme: rec.Cell.Scheme}
			cells[key] = rec.Cell.Payload
			counts[key]++
		default:
			return nil, nil, nil, 0, &CorruptError{Line: lineNo, Reason: fmt.Sprintf("unknown record kind %q", rec.Kind)}
		}
		goodEnd += int64(len(line))
	}
	if header == nil {
		return nil, nil, nil, 0, &CorruptError{Reason: "no header record (empty or torn-at-birth journal)"}
	}
	return header, cells, counts, goodEnd, nil
}

// parseLine validates one "crc32hex SP json" line.
func parseLine(line []byte, lineNo int) (record, error) {
	// Strip the trailing newline if present (torn lines lack it).
	line = bytes.TrimSuffix(line, []byte("\n"))
	if len(line) < 10 || line[8] != ' ' {
		return record{}, &CorruptError{Line: lineNo, Reason: "line too short for a crc-prefixed record"}
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return record{}, &CorruptError{Line: lineNo, Reason: "malformed crc prefix"}
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return record{}, &ChecksumError{Line: lineNo, Want: want, Got: got}
	}
	var rec record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return record{}, &CorruptError{Line: lineNo, Reason: fmt.Sprintf("record is not valid JSON: %v", err)}
	}
	return rec, nil
}

// Header returns the journal's header record.
func (j *Journal) Header() Header {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.header
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// Lookup returns the recorded payload of a completed cell, or false
// when the cell has not completed — the resume-skip query.
func (j *Journal) Lookup(drop int, scheme string) (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.cells[CellKey{Drop: drop, Scheme: scheme}]
	return p, ok
}

// Record appends one completed cell and fsyncs before returning: once
// Record returns nil, the cell survives any crash. Safe for concurrent
// use; concurrent records serialize on the journal lock so lines never
// interleave.
func (j *Journal) Record(drop int, scheme string, payload json.RawMessage) error {
	if drop < 0 || scheme == "" {
		return fmt.Errorf("journal: invalid cell coordinates (drop %d, scheme %q)", drop, scheme)
	}
	line, err := encodeLine(record{Kind: "cell", Cell: &cellRecord{Drop: drop, Scheme: scheme, Payload: payload}})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: record on closed journal %s", j.path)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal: appending cell (drop %d, scheme %s): %w", drop, scheme, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: syncing cell (drop %d, scheme %s): %w", drop, scheme, err)
	}
	j.cells[CellKey{Drop: drop, Scheme: scheme}] = payload
	return nil
}

// Close releases the file handle and the owner lock. Records are
// already durable (each Record fsyncs), so Close never loses data; it
// is idempotent (the lock is released exactly once, so a double Close
// cannot delete a successor's lock).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Close()
	if j.release != nil {
		j.release()
		j.release = nil
	}
	return err
}
