package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// defaultSeed is the seed expected.json holds output digests for.
const defaultSeed = 1

// expectations is expected.json: for the default seed, the SHA-256 of
// every operation's sorted output, at full and at quick sizes. Runs on
// that seed must reproduce them; runs on other seeds check only that the
// optimized and unoptimized legs agree.
type expectations struct {
	Seed  int64                        `json:"seed"`
	Full  map[string]map[string]string `json:"full"`
	Quick map[string]map[string]string `json:"quick"`
}

func loadExpected(path string) (*expectations, error) {
	e := &expectations{Seed: defaultSeed}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

func (e *expectations) table(quick bool) *map[string]map[string]string {
	if quick {
		return &e.Quick
	}
	return &e.Full
}

// lookup returns the digests the run must reproduce, or nil when the
// file has none for its seed and sizes.
func (e *expectations) lookup(cfg *runConfig) map[string]string {
	if cfg.seed != e.Seed {
		return nil
	}
	return (*e.table(cfg.quick))[cfg.workload]
}

// record stores a run's digests as the expectation (-write-expected).
func (e *expectations) record(cfg *runConfig, digests map[string]string, path string) error {
	if cfg.seed != e.Seed {
		return fmt.Errorf("-write-expected records seed %d only, not %d", e.Seed, cfg.seed)
	}
	t := e.table(cfg.quick)
	if *t == nil {
		*t = make(map[string]map[string]string)
	}
	(*t)[cfg.workload] = digests
	raw, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
