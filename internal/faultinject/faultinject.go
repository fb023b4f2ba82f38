// Package faultinject is Manimal's deterministic fault-injection harness:
// named injection points wrapped around storage reads and writes, spill
// I/O, task bodies, atomic-rename commits, job-journal writes, submission
// admission, and the coordinator's drain and crash paths, so the engine's
// fault tolerance (retries, speculation, checksum quarantine) and the
// coordinator's crash recovery can be exercised reproducibly in tests and
// CI without flaky sleeps or real disk errors.
//
// # Addressing and determinism
//
// Every injection site is addressed by a (point, key) pair — e.g.
// (PointStorageRead, "visits.rec#3") — plus an occurrence number counting
// how many times that address has fired. Whether a given occurrence
// injects is a pure function of the injector's seed and that address:
// hash(seed, point, key, occurrence) mapped into [0,1) and compared to the
// rule's probability. The same seed therefore injects the same faults at
// the same sites run after run, while a RETRY of the same site (occurrence
// +1) draws fresh — so a transiently failed read does not fail forever.
//
// # Enabling
//
// Programmatically (tests): Set(MustParse("read=0.05;seed=7")), paired
// with a deferred Reset. Via environment: MANIMAL_FAULTS="<spec;seed>" is
// loaded at process start (a malformed spec panics — a fault harness that
// silently injects nothing is worse than a crash).
//
// The spec is comma-separated rules, each "point=prob[:delay][@pathsub]":
//
//	read=0.05              5% of storage block reads fail (transient)
//	write=0.02             2% of record-file block writes fail
//	spill=0.05             5% of spills (in memory or on disk) and merge
//	                       cursor opens fail
//	task=0.01              1% of task attempts fail at start
//	straggle=0.1:200ms     10% of task attempts sleep 200ms first
//	corrupt=1.0@.idx0      every read of a path containing ".idx0" is
//	                       bit-flipped (caught by block checksums)
//	crash=0.5              50% of synced atomic commits (package durable:
//	                       index and output files, the catalog snapshot,
//	                       cache artifacts) fail before their rename; keyed
//	                       by base name, e.g. crash=1@manimal-catalog.json
//	journal=1.0            every job-journal record write fails (the
//	                       submission being recorded must be refused)
//	admit=1.0@nightly      admission of a recorded submission named
//	                       "nightly…" fails (it must be journaled failed)
//	drain=1.0              a graceful drain aborts mid-way (crash-mid-drain)
//	kill=1.0@map           the PROCESS exits (status KillExitCode) the
//	                       moment a map-task attempt starts — a real crash
//	                       for recovery tests' subprocess helpers;
//	                       @journal:j00000003.end kills between the append
//	                       and the sync of that journal record instead,
//	                       @commit:k.kv at the crash point of k.kv's commit
//
// ";seed=N" fixes the hash seed (default 1). Rules with @pathsub apply
// only to keys containing that substring.
//
// # Overhead
//
// When no injector is installed every hook is one atomic pointer load and
// a predictable branch — the hot paths stay allocation- and lock-free.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one class of injection site.
type Point string

// Injection points, wrapped around the engine's I/O and task boundaries.
const (
	// PointStorageRead fails record-file block reads (transient I/O error).
	PointStorageRead Point = "read"
	// PointStorageWrite fails record-file block/footer writes.
	PointStorageWrite Point = "write"
	// PointSpill fails shuffle spills — in-memory images and files alike —
	// and reduce-side cursor opens, keyed by the spill's name.
	PointSpill Point = "spill"
	// PointTask fails a task attempt at its start (transient).
	PointTask Point = "task"
	// PointStraggle delays a task attempt (speculation trigger), not an error.
	PointStraggle Point = "straggle"
	// PointCorrupt flips bits in a block read's raw bytes (detected by
	// CRC32C block checksums and classified permanent).
	PointCorrupt Point = "corrupt"
	// PointCrashRename fails an atomic commit after the temp file is fully
	// written and synced but before the rename (package durable) — modeling
	// a crash mid-commit; the final path must be left untouched.
	PointCrashRename Point = "crash"
	// PointJournal fails a job-journal record write before it touches
	// disk — modeling a full coordinator disk or a crash at journal write;
	// the submission it was recording must be refused.
	PointJournal Point = "journal"
	// PointAdmit fails a submission's admission, after its journal record
	// was written — the refusal must reach the journal as a terminal state
	// so no recovery replays the job. Keyed by job name.
	PointAdmit Point = "admit"
	// PointDrain aborts a graceful drain in progress — modeling a
	// coordinator crash mid-drain, after admission stopped but before
	// running jobs finished.
	PointDrain Point = "drain"
	// PointKill terminates the whole process immediately (os.Exit) when it
	// fires — the only point that models a real coordinator crash rather
	// than an error return. Exercised from subprocess helpers in recovery
	// tests; see Kill.
	PointKill Point = "kill"
)

// KillExitCode is the status a process killed by PointKill exits with, so
// recovery tests can tell an injected crash from an ordinary failure.
const KillExitCode = 86

// ErrInjected is the sentinel every injected error wraps, so callers can
// distinguish harness faults from real ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// InjectedError is the error returned by firing Fail points.
type InjectedError struct {
	Point Point
	Key   string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault at %s", e.Point, e.Key)
}

// Unwrap lets errors.Is(err, ErrInjected) match.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// Rule is one parsed injection rule.
type Rule struct {
	Point Point
	Prob  float64
	// Delay is the sleep for PointStraggle rules.
	Delay time.Duration
	// PathSub restricts the rule to keys containing the substring ("" = all).
	PathSub string
}

// Injector decides, deterministically per (point, key, occurrence), which
// sites inject. Safe for concurrent use.
type Injector struct {
	seed  uint64
	rules map[Point][]Rule

	mu  sync.Mutex
	occ map[string]uint64 // per-address occurrence counters
}

// active is the installed injector; nil means disabled (the common case,
// checked with one atomic load on every hook).
var active atomic.Pointer[Injector]

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Set installs inj as the process-wide injector (nil disables). Tests pair
// it with a deferred Reset.
func Set(inj *Injector) { active.Store(inj) }

// Reset removes any installed injector.
func Reset() { active.Store(nil) }

// Parse builds an injector from "rule,rule,...;seed=N" spec text.
func Parse(spec string) (*Injector, error) {
	inj := &Injector{seed: 1, rules: make(map[Point][]Rule), occ: make(map[string]uint64)}
	body := spec
	if rules, seedPart, ok := strings.Cut(spec, ";"); ok {
		body = rules
		seedStr, found := strings.CutPrefix(strings.TrimSpace(seedPart), "seed=")
		if !found {
			return nil, fmt.Errorf("faultinject: %q: expected \";seed=N\"", spec)
		}
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad seed %q: %w", seedStr, err)
		}
		inj.seed = seed
	}
	for _, rt := range strings.Split(body, ",") {
		rt = strings.TrimSpace(rt)
		if rt == "" {
			continue
		}
		r, err := parseRule(rt)
		if err != nil {
			return nil, err
		}
		inj.rules[r.Point] = append(inj.rules[r.Point], r)
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("faultinject: %q has no rules", spec)
	}
	return inj, nil
}

// MustParse is Parse that panics on error (tests, init-time env loading).
func MustParse(spec string) *Injector {
	inj, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return inj
}

func parseRule(text string) (Rule, error) {
	var r Rule
	rest := text
	if body, sub, ok := strings.Cut(rest, "@"); ok {
		rest, r.PathSub = body, sub
	}
	name, val, ok := strings.Cut(rest, "=")
	if !ok {
		return r, fmt.Errorf("faultinject: rule %q: expected point=prob", text)
	}
	switch p := Point(name); p {
	case PointStorageRead, PointStorageWrite, PointSpill, PointTask,
		PointStraggle, PointCorrupt, PointCrashRename,
		PointJournal, PointAdmit, PointDrain, PointKill:
		r.Point = p
	default:
		return r, fmt.Errorf("faultinject: rule %q: unknown point %q", text, name)
	}
	probStr := val
	if ps, ds, ok := strings.Cut(val, ":"); ok {
		probStr = ps
		d, err := time.ParseDuration(ds)
		if err != nil {
			return r, fmt.Errorf("faultinject: rule %q: bad delay: %w", text, err)
		}
		r.Delay = d
	}
	prob, err := strconv.ParseFloat(probStr, 64)
	if err != nil || prob < 0 || prob > 1 {
		return r, fmt.Errorf("faultinject: rule %q: probability must be in [0,1]", text)
	}
	r.Prob = prob
	if r.Point == PointStraggle && r.Delay <= 0 {
		return r, fmt.Errorf("faultinject: rule %q: straggle needs a :delay", text)
	}
	return r, nil
}

// fires reports whether (p, key) injects on this occurrence, returning the
// matched rule. One decision is drawn per call even when several rules
// match the same point (first match wins), so rule order is significant
// only among same-point rules with overlapping path filters.
func (inj *Injector) fires(p Point, key string) (Rule, bool) {
	rules := inj.rules[p]
	if len(rules) == 0 {
		return Rule{}, false
	}
	for _, r := range rules {
		if r.PathSub != "" && !strings.Contains(key, r.PathSub) {
			continue
		}
		addr := string(p) + "\x00" + key
		inj.mu.Lock()
		occ := inj.occ[addr]
		inj.occ[addr] = occ + 1
		inj.mu.Unlock()
		return r, unitHash(inj.seed, addr, occ) < r.Prob
	}
	return Rule{}, false
}

// unitHash maps (seed, addr, occurrence) onto [0,1) with FNV-1a.
func unitHash(seed uint64, addr string, occ uint64) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= occ >> (8 * i) & 0xff
		h *= prime64
	}
	// 53 high bits give a uniform float64 in [0,1).
	return float64(h>>11) / (1 << 53)
}

// Fail returns an injected error when the (p, key) site fires, nil
// otherwise (and always nil when no injector is installed).
func Fail(p Point, key string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	if _, hit := inj.fires(p, key); hit {
		return &InjectedError{Point: p, Key: key}
	}
	return nil
}

// Sleep delays the caller when the straggle point fires for key,
// returning early (without error) if ctx is canceled first.
func Sleep(ctx context.Context, key string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	r, hit := inj.fires(PointStraggle, key)
	if !hit || r.Delay <= 0 {
		return
	}
	t := time.NewTimer(r.Delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Kill terminates the process (exit status KillExitCode) when the kill
// point fires for key — an injected hard crash, not an error: no deferred
// cleanup runs, exactly like a real coordinator death. Used by recovery
// tests' subprocess helpers; a process without an installed injector (the
// normal case) never exits here.
func Kill(key string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	if _, hit := inj.fires(PointKill, key); hit {
		fmt.Fprintf(os.Stderr, "faultinject: injected kill at %s\n", key)
		os.Exit(KillExitCode)
	}
}

// CorruptBytes flips bits in buf when the corrupt point fires for key,
// reporting whether it did. The flipped positions derive from the seed,
// so corruption is as reproducible as every other injection.
func CorruptBytes(key string, buf []byte) bool {
	inj := active.Load()
	if inj == nil || len(buf) == 0 {
		return false
	}
	if _, hit := inj.fires(PointCorrupt, key); !hit {
		return false
	}
	// Flip one bit in each third of the buffer: enough to defeat any
	// decoder, guaranteed to change the block checksum.
	for i := 0; i < 3; i++ {
		pos := int(unitHash(inj.seed, key, uint64(1000+i)) * float64(len(buf)))
		if pos >= len(buf) {
			pos = len(buf) - 1
		}
		buf[pos] ^= 0x40
	}
	return true
}

func init() {
	if spec := os.Getenv("MANIMAL_FAULTS"); spec != "" {
		Set(MustParse(spec))
	}
}
