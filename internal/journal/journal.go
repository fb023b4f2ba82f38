// Package journal is the coordinator's durable job log: an append-only,
// per-System record of every accepted submission and its terminal state,
// kept in the system directory so a restarted coordinator can reconstruct
// what it owed the outside world. The journal is what makes `manimal serve
// -recover` possible — without it, killing the coordinator loses every
// queued and running job without a trace.
//
// # Layout and durability
//
// The journal is ONE file, <sysdir>/journal/journal.log: a durable.Log of
// CRC32C-framed records, each an 8-byte job sequence number followed by
// JSON:
//
//	submit   the accepted submission (program source, conf, inputs, output
//	         path, tenant) — durable BEFORE the job is handed to the
//	         scheduler
//	end      the terminal state (done/failed/canceled) and output record
//	         count — durable before the job's Done is observable
//	mark     a recovery annotation (e.g. "interrupted"), appended when a
//	         replay finds the job incomplete
//
// A write is one append plus a group commit: concurrent Begin/End calls
// append under the journal's lock and share fdatasyncs (see durable.Log),
// and each returns only once its own record is durable. A crash leaves a
// prefix of whole records — a torn final frame is ignored at Open — and a
// submission whose record cannot be made durable is REFUSED, so an accepted
// job is always recoverable. A later end or mark for the same job simply
// follows the earlier one in the log; the last wins.
//
// Open keeps one (sequence → frame offsets) entry per job in memory, so
// Lookup reads three frames and Stats reads none.
//
// # Recovery contract
//
// Replay returns one Entry per submission, in sequence order. An entry
// with no end record is INCOMPLETE: the coordinator died while the job
// was queued or running. Re-executing an incomplete entry is safe because
// execution is idempotent at both ends — the result cache serves identical
// re-submissions from committed output, and the engine's atomic per-task
// commit means a partially written output is invisible (only a *.tmp-*
// orphan, which recovery removes). See manimal.System.Recover for the
// replay driver.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"manimal/internal/durable"
	"manimal/internal/faultinject"
	"manimal/internal/serde"
)

// Terminal states recorded in End.State (mirroring the engine's terminal
// phases).
const (
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Input is one journaled input: the file path and the full program source
// that consumed it, so recovery can re-parse and resubmit without any
// other surviving state.
type Input struct {
	Path        string `json:"path"`
	ProgramName string `json:"program_name"`
	Program     string `json:"program"`
}

// ConfValue is one conf parameter in kind-tagged string form. JSON cannot
// round-trip the engine's datum types faithfully (every number decodes as
// float64), so the journal stores the kind explicitly. Every datum kind
// round-trips: ints in decimal, floats in shortest exact form, bools as
// true/false, strings verbatim (valid UTF-8 only, see EncodeConf), bytes
// in lowercase hex.
type ConfValue struct {
	Kind  string `json:"kind"` // "int" | "float" | "string" | "bytes" | "bool"
	Value string `json:"value"`
}

// EncodeConf turns a job conf into its journal form. A datum of no kind
// has none and is refused, and so is a key or string value that is not
// valid UTF-8: JSON would store U+FFFD in place of its bad bytes, and the
// replayed job would read a different conf.
func EncodeConf(conf map[string]serde.Datum) (map[string]ConfValue, error) {
	if len(conf) == 0 {
		return nil, nil
	}
	out := make(map[string]ConfValue, len(conf))
	for k, d := range conf {
		if !utf8.ValidString(k) || d.Kind == serde.KindString && !utf8.ValidString(d.Str()) {
			return nil, fmt.Errorf("journal: conf %q is not valid UTF-8, which the job journal cannot record", k)
		}
		cv := ConfValue{Value: d.String()}
		switch d.Kind {
		case serde.KindInt64:
			cv.Kind = "int"
		case serde.KindFloat64:
			cv.Kind = "float"
		case serde.KindString:
			cv.Kind = "string"
		case serde.KindBytes:
			cv.Kind, cv.Value = "bytes", hex.EncodeToString(d.Raw())
		case serde.KindBool:
			cv.Kind = "bool"
		default:
			return nil, fmt.Errorf("journal: conf %q holds a datum of no kind, which the job journal cannot record", k)
		}
		out[k] = cv
	}
	return out, nil
}

// DecodeConf is EncodeConf's inverse. The values reach it through the
// checksummed log, so their parse errors are not checked.
func DecodeConf(m map[string]ConfValue) map[string]serde.Datum {
	if len(m) == 0 {
		return nil
	}
	conf := make(map[string]serde.Datum, len(m))
	for k, cv := range m {
		switch cv.Kind {
		case "int":
			v, _ := strconv.ParseInt(cv.Value, 10, 64)
			conf[k] = serde.Int(v)
		case "float":
			v, _ := strconv.ParseFloat(cv.Value, 64)
			conf[k] = serde.Float(v)
		case "bool":
			conf[k] = serde.Bool(cv.Value == "true")
		case "bytes":
			b, _ := hex.DecodeString(cv.Value)
			conf[k] = serde.Bytes(b)
		default:
			conf[k] = serde.String(cv.Value)
		}
	}
	return conf
}

// Submission is the journaled form of one accepted job: everything needed
// to resubmit it identically after a coordinator restart. Runtime-only
// tuning that should not survive a restart (StartupDelay models the
// original submission's launch latency, not the job's identity) is
// deliberately absent.
type Submission struct {
	ID                  string               `json:"id,omitempty"` // set from the record's sequence number on replay
	Name                string               `json:"name"`
	Inputs              []Input              `json:"inputs"`
	OutputPath          string               `json:"output_path"`
	Conf                map[string]ConfValue `json:"conf,omitempty"`
	MapOnly             bool                 `json:"map_only,omitempty"`
	SortedOutput        bool                 `json:"sorted_output,omitempty"`
	SafeMode            bool                 `json:"safe_mode,omitempty"`
	DisableOptimization bool                 `json:"disable_optimization,omitempty"`
	NumReducers         int                  `json:"num_reducers,omitempty"`
	MaxParallelTasks    int                  `json:"max_parallel_tasks,omitempty"`
	Tenant              string               `json:"tenant,omitempty"`
	SubmittedAt         time.Time            `json:"submitted_at"`
}

// End records a job's terminal state.
type End struct {
	ID            string    `json:"id,omitempty"`
	State         string    `json:"state"` // done | failed | canceled
	Error         string    `json:"error,omitempty"`
	OutputRecords int64     `json:"output_records,omitempty"`
	FinishedAt    time.Time `json:"finished_at"`
}

// Mark is a recovery annotation on a job (latest one wins).
type Mark struct {
	ID   string    `json:"id,omitempty"`
	Note string    `json:"note"`
	At   time.Time `json:"at"`
}

// Entry is one job's replayed journal state.
type Entry struct {
	Sub  Submission
	End  *End
	Mark *Mark
}

// Complete reports whether the job reached a terminal state before the
// journal was last written. Incomplete entries are what recovery resubmits.
func (e *Entry) Complete() bool { return e.End != nil }

// State returns the entry's terminal state, or "incomplete".
func (e *Entry) State() string {
	if e.End != nil {
		return e.End.State
	}
	return "incomplete"
}

// Stats summarizes a journal for operational endpoints.
type Stats struct {
	Dir        string `json:"dir"`
	Jobs       int    `json:"jobs"`
	Incomplete int    `json:"incomplete"`
	Records    int    `json:"records"`
	Bytes      int64  `json:"bytes"`
}

// ErrLegacyLayout is returned by Open for a journal directory written by
// the retired file-per-record format (<seq>.submit.json and friends). This
// binary has no reader for it.
var ErrLegacyLayout = errors.New("journal: file-per-record layout is no longer supported")

// Record kinds in the log.
const (
	kindSubmit byte = 1
	kindEnd    byte = 2
	kindMark   byte = 3
)

var kindNames = map[byte]string{kindSubmit: "submit", kindEnd: "end", kindMark: "mark"}

const logName = "journal.log"

// jobRef locates one job's records in the log: the frame offset of its
// submission and of its latest end and mark (-1 when it has none).
type jobRef struct {
	sub, end, mark int64
}

// Journal is one system's job log. Safe for concurrent use; every write
// is durable before the call returns.
type Journal struct {
	dir string
	log *durable.Log

	mu         sync.Mutex
	seq        uint64 // highest sequence number assigned so far
	jobs       map[uint64]*jobRef
	incomplete int
	records    int
}

// Open opens (or initializes) the journal in dir and indexes its records.
// A torn final record — a crash between append and sync; by construction
// never acknowledged — is ignored. A directory holding the retired
// file-per-record layout is refused with ErrLegacyLayout.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	created := true
	for _, de := range des {
		name := de.Name()
		if name == logName {
			created = false
		}
		for _, kind := range kindNames {
			if strings.HasSuffix(name, "."+kind+".json") {
				return nil, fmt.Errorf("%w: %s holds %s; drain it with the previous binary "+
					"(`manimal serve -recover` until `manimal jobs -sys` lists no incomplete job), then remove the directory",
					ErrLegacyLayout, dir, name)
			}
		}
	}
	j := &Journal{dir: dir, jobs: make(map[uint64]*jobRef)}
	j.log, err = durable.Open(filepath.Join(dir, logName), func(off int64, kind byte, payload []byte) error {
		seq, _, err := splitRecord(kind, payload)
		if err != nil {
			return fmt.Errorf("journal: %s: record at offset %d: %w", dir, off, err)
		}
		j.index(seq, kind, off)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if created {
		// The file's records are made durable by the syncs that follow
		// them; its name needs the directory synced once.
		if err := durable.SyncDir(dir); err != nil {
			j.log.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	return j, nil
}

// Close releases the journal's file.
func (j *Journal) Close() error { return j.log.Close() }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// splitRecord separates a record's sequence number from its JSON body.
func splitRecord(kind byte, payload []byte) (uint64, []byte, error) {
	if _, known := kindNames[kind]; !known {
		return 0, nil, fmt.Errorf("unknown record kind %d", kind)
	}
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%d-byte record has no sequence number", len(payload))
	}
	seq := binary.LittleEndian.Uint64(payload)
	if seq == 0 || seq > maxSeq {
		return 0, nil, fmt.Errorf("sequence number %d out of range", seq)
	}
	return seq, payload[8:], nil
}

// index notes one record in the in-memory job table. Callers hold j.mu
// (or, in Open, own the journal). An end or mark whose submission never
// made it is impossible by construction (the submission is durable first)
// and ignored.
func (j *Journal) index(seq uint64, kind byte, off int64) {
	j.records++
	ref := j.jobs[seq]
	switch {
	case kind == kindSubmit:
		if ref == nil {
			j.jobs[seq] = &jobRef{sub: off, end: -1, mark: -1}
			j.incomplete++
		}
		if seq > j.seq {
			j.seq = seq
		}
	case ref == nil:
	case kind == kindEnd:
		if ref.end < 0 {
			j.incomplete--
		}
		ref.end = off
	case kind == kindMark:
		ref.mark = off
	}
}

// write appends one record for job seq and makes it durable; seq == 0 asks
// for the next sequence number (Begin), and the one used is returned. The
// kill point between append and sync models the crash that leaves an
// unacknowledged, possibly torn, tail.
func (j *Journal) write(seq uint64, kind byte, v any) (uint64, error) {
	buf := bytes.NewBuffer(make([]byte, 8, 1024)) // room for the sequence number
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	seq, off, err := j.append(seq, kind, buf.Bytes())
	if err != nil {
		return 0, err
	}
	faultinject.Kill("journal:" + recordKey(seq, kind))
	if err := j.log.Sync(off); err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	return seq, nil
}

// append assigns the sequence number, writes the record and indexes it, all
// under the journal's lock so records land in sequence order. The journal
// fault point fires BEFORE anything touches disk, modeling a full write
// failure: nothing is appended and no sequence number is consumed.
func (j *Journal) append(seq uint64, kind byte, payload []byte) (uint64, int64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq == 0 {
		seq = j.seq + 1
	}
	if seq > maxSeq {
		return 0, 0, errors.New("journal: job IDs exhausted")
	}
	if kind != kindSubmit && j.jobs[seq] == nil {
		return 0, 0, fmt.Errorf("journal: no submission %s to record a %s for", idFor(seq), kindNames[kind])
	}
	if err := faultinject.Fail(faultinject.PointJournal, recordKey(seq, kind)); err != nil {
		return 0, 0, fmt.Errorf("journal: writing %s: %w", recordKey(seq, kind), err)
	}
	binary.LittleEndian.PutUint64(payload, seq)
	off, err := j.log.Append(kind, payload)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	j.index(seq, kind, off)
	return seq, off, nil
}

// recordKey names a record for the fault-injection points, e.g.
// "j00000003.end".
func recordKey(seq uint64, kind byte) string { return idFor(seq) + "." + kindNames[kind] }

// Begin journals an accepted submission and returns its assigned job ID
// ("j" + 8-digit sequence). The record is durable when Begin returns; on
// error nothing was accepted and the caller must refuse the submission.
// A submission whose name, tenant, output path, or an input's path,
// program name or program source is not valid UTF-8 is refused with
// nothing appended: JSON would store U+FFFD in place of its bad bytes, and
// recovery would resubmit a job with a different input or output.
func (j *Journal) Begin(sub Submission) (string, error) {
	if what := invalidUTF8(&sub); what != "" {
		return "", fmt.Errorf("journal: %s is not valid UTF-8, which the job journal cannot record", what)
	}
	sub.ID = "" // the record's sequence number is the ID
	if sub.SubmittedAt.IsZero() {
		sub.SubmittedAt = time.Now()
	}
	seq, err := j.write(0, kindSubmit, sub)
	if err != nil {
		return "", err
	}
	return idFor(seq), nil
}

// invalidUTF8 names the first string of sub that is not valid UTF-8, or
// returns "" when every one is.
func invalidUTF8(sub *Submission) string {
	switch {
	case !utf8.ValidString(sub.Name):
		return fmt.Sprintf("job name %q", sub.Name)
	case !utf8.ValidString(sub.Tenant):
		return fmt.Sprintf("tenant %q", sub.Tenant)
	case !utf8.ValidString(sub.OutputPath):
		return fmt.Sprintf("output path %q", sub.OutputPath)
	}
	for i, in := range sub.Inputs {
		switch {
		case !utf8.ValidString(in.Path):
			return fmt.Sprintf("input path %q", in.Path)
		case !utf8.ValidString(in.ProgramName):
			return fmt.Sprintf("program name %q", in.ProgramName)
		case !utf8.ValidString(in.Program):
			return fmt.Sprintf("the program source of input %d", i)
		}
	}
	return ""
}

// End journals a job's terminal state. Ending the same job again appends a
// later record, which wins (recovery re-runs a job under its original ID,
// so its final End is the one replayed).
func (j *Journal) End(id, state, errText string, outputRecords int64) error {
	seq, err := ParseID(id)
	if err != nil {
		return err
	}
	_, err = j.write(seq, kindEnd, End{State: state, Error: errText, OutputRecords: outputRecords, FinishedAt: time.Now()})
	return err
}

// Mark annotates a job (e.g. "interrupted; resubmitted by recovery"). The
// latest mark is the one replayed.
func (j *Journal) Mark(id, note string) error {
	seq, err := ParseID(id)
	if err != nil {
		return err
	}
	_, err = j.write(seq, kindMark, Mark{Note: note, At: time.Now()})
	return err
}

// decodeInto fills e from one record's JSON body; the job ID comes from the
// record's sequence number, not the body.
func decodeInto(e *Entry, seq uint64, kind byte, body []byte) error {
	id := idFor(seq)
	var err error
	switch kind {
	case kindSubmit:
		err = json.Unmarshal(body, &e.Sub)
		e.Sub.ID = id
	case kindEnd:
		e.End = &End{}
		err = json.Unmarshal(body, e.End)
		e.End.ID = id
	case kindMark:
		e.Mark = &Mark{}
		err = json.Unmarshal(body, e.Mark)
		e.Mark.ID = id
	}
	return err
}

// Replay reads the whole journal in one pass and returns one entry per
// submission, each with its latest end and mark. Sequence numbers are
// assigned under the lock records are appended under, so log order is
// sequence order.
func (j *Journal) Replay() ([]Entry, error) {
	var out []Entry
	at := make(map[uint64]int) // sequence number -> index in out
	err := j.log.Scan(func(off int64, kind byte, payload []byte) error {
		seq, body, err := splitRecord(kind, payload)
		if err == nil {
			i, seen := at[seq]
			if seen == (kind == kindSubmit) {
				return nil // an end or mark without its submission, or a repeated one: impossible by construction
			}
			if !seen {
				i = len(out)
				at[seq] = i
				out = append(out, Entry{})
			}
			err = decodeInto(&out[i], seq, kind, body)
		}
		if err != nil {
			return fmt.Errorf("journal: %s: record at offset %d: %w", j.dir, off, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lookup returns one job's journal entry by ID, reading only that job's
// records.
func (j *Journal) Lookup(id string) (Entry, bool, error) {
	seq, err := ParseID(id)
	if err != nil {
		return Entry{}, false, nil
	}
	j.mu.Lock()
	ref := j.jobs[seq]
	var at jobRef
	if ref != nil {
		at = *ref
	}
	j.mu.Unlock()
	if ref == nil {
		return Entry{}, false, nil
	}
	var e Entry
	for _, off := range []int64{at.sub, at.end, at.mark} {
		if off < 0 {
			continue
		}
		kind, payload, err := j.log.ReadAt(off)
		if err == nil {
			var body []byte
			if _, body, err = splitRecord(kind, payload); err == nil {
				err = decodeInto(&e, seq, kind, body)
			}
		}
		if err != nil {
			return Entry{}, false, fmt.Errorf("journal: %s: %w", id, err)
		}
	}
	return e, true, nil
}

// Stats summarizes the journal from its in-memory index.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Dir: j.dir, Jobs: len(j.jobs), Incomplete: j.incomplete,
		Records: j.records, Bytes: j.log.Size()}
}

// maxSeq is the largest sequence number an 8-digit job ID can carry.
const maxSeq = 99999999

// idFor formats a sequence number as a job ID.
func idFor(seq uint64) string { return fmt.Sprintf("j%08d", seq) }

// ParseID extracts the sequence number from a journal job ID.
func ParseID(id string) (uint64, error) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || len(digits) != 8 {
		return 0, fmt.Errorf("journal: malformed job id %q", id)
	}
	seq, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || seq == 0 {
		return 0, fmt.Errorf("journal: malformed job id %q", id)
	}
	return seq, nil
}
