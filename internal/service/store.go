package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"wpinq/internal/synth"
)

// Store persists released measurements under content-addressed IDs.
//
// The stored bytes are exactly what synth.(*Measurements).Save writes
// (format-version header + JSON), and the ID is derived from those
// bytes, so a release can be re-fetched, mirrored, or re-uploaded
// without ever colliding or silently mutating: same bytes, same ID.
// Measurements are differentially private, so the store is the public,
// analyst-facing half of the service — nothing in it is sensitive.
type Store struct {
	dir string
	log *slog.Logger

	mu      sync.Mutex
	entries map[string]storeEntry
	order   []string // insertion order, for stable listings
	prov    map[string][]ProvenanceRecord
	ckpts   map[string][]byte // job ID -> serialized checkpoint

	write func(path string, data []byte) error // writeAtomic; tests make a chosen step of it fail
}

// writeAtomic persists data at path so that a crash at any point leaves
// the previous file or the complete new one, never a torn one: a temp
// file beside it is written, fsynced, closed and renamed over path, and
// removed if any of that fails. Releases and checkpoints are both written
// this way: the provenance line that names a release is fsynced, so the
// bytes it names must be too.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

type storeEntry struct {
	info MeasurementInfo
	data []byte
}

// MeasurementInfo describes one stored release.
type MeasurementInfo struct {
	ID        string  `json:"id"`
	Eps       float64 `json:"eps"`
	TotalCost float64 `json:"totalCost"`
	// Kinds lists the seed measurements plus every fit workload name
	// the release contains (sorted).
	Kinds []string `json:"kinds"`
	// Buckets maps bucketed fit workloads to the degree bucket width
	// they were measured with.
	Buckets map[string]int `json:"buckets,omitempty"`
	Bytes   int            `json:"bytes"`
}

// NewStore opens (and if needed creates) a store rooted at dir, loading
// every previously persisted measurement and job checkpoint. An empty
// dir keeps the store in memory only. logger receives boot-time repair
// warnings (torn provenance tails); nil discards them.
func NewStore(dir string, logger *slog.Logger) (*Store, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	st := &Store{
		dir:     dir,
		log:     logger,
		entries: make(map[string]storeEntry),
		ckpts:   make(map[string][]byte),
		write:   writeAtomic,
	}
	if dir == "" {
		return st, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating store dir: %w", err)
	}
	// A crash between a temp file's creation and its rename leaves it
	// behind; nothing ever acknowledged it.
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	names, err := filepath.Glob(filepath.Join(dir, "m*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("service: reading stored measurement: %w", err)
		}
		id := contentID(data)
		if want := strings.TrimSuffix(filepath.Base(name), ".json"); want != id {
			return nil, fmt.Errorf("service: %s content hashes to %s: file corrupted or renamed", name, id)
		}
		info, err := describeMeasurement(id, data)
		if err != nil {
			return nil, fmt.Errorf("service: %s: %w", name, err)
		}
		st.entries[id] = storeEntry{info: info, data: data}
		st.order = append(st.order, id)
	}
	if err := st.loadProvenance(); err != nil {
		return nil, err
	}
	if err := st.loadCheckpoints(); err != nil {
		return nil, err
	}
	return st, nil
}

// checkpointFile names a job's persisted checkpoint under the store
// dir. Job IDs are j<N>, so the name set is disjoint from measurement
// blobs (m<hash>.json) and the provenance ledger.
func checkpointFile(jobID string) string { return "ckpt-" + jobID + ".json" }

// loadCheckpoints reads every persisted job checkpoint back into
// memory. The bytes are not validated here — Recover parses and
// verifies each one, and must be able to report (rather than refuse
// boot over) an individually unusable checkpoint.
func (st *Store) loadCheckpoints() error {
	names, err := filepath.Glob(filepath.Join(st.dir, "ckpt-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return fmt.Errorf("service: reading job checkpoint: %w", err)
		}
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "ckpt-"), ".json")
		st.ckpts[id] = data
	}
	return nil
}

// PutCheckpoint persists a job's serialized checkpoint, replacing any
// previous one, atomically (writeAtomic): a crash mid-checkpoint leaves
// the previous checkpoint intact, never a torn half-document.
func (st *Store) PutCheckpoint(jobID string, data []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dir != "" {
		if err := st.write(filepath.Join(st.dir, checkpointFile(jobID)), data); err != nil {
			return fmt.Errorf("%w: persisting checkpoint: %v", ErrInternal, err)
		}
	}
	st.ckpts[jobID] = append([]byte(nil), data...)
	return nil
}

// Checkpoint returns a job's persisted checkpoint bytes.
func (st *Store) Checkpoint(jobID string) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	data, ok := st.ckpts[jobID]
	if !ok {
		return nil, fmt.Errorf("%w: no checkpoint for job %s", ErrNotFound, jobID)
	}
	return append([]byte(nil), data...), nil
}

// DeleteCheckpoint removes a job's checkpoint (no-op if absent).
func (st *Store) DeleteCheckpoint(jobID string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.ckpts[jobID]; !ok {
		return nil
	}
	delete(st.ckpts, jobID)
	if st.dir != "" {
		if err := os.Remove(filepath.Join(st.dir, checkpointFile(jobID))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("%w: deleting checkpoint: %v", ErrInternal, err)
		}
	}
	return nil
}

// Checkpoints returns the job IDs with a persisted checkpoint, sorted.
func (st *Store) Checkpoints() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.ckpts))
	for id := range st.ckpts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// contentID derives the content-addressed ID of a saved release.
func contentID(data []byte) string {
	sum := sha256.Sum256(data)
	return "m" + hex.EncodeToString(sum[:8])
}

// describeMeasurement parses saved bytes into listing metadata (the
// disk-load path). The throwaway rng is never sampled: only presence
// and bookkeeping fields are inspected.
func describeMeasurement(id string, data []byte) (MeasurementInfo, error) {
	m, err := synth.LoadMeasurements(bytes.NewReader(data), rand.New(rand.NewSource(0)))
	if err != nil {
		return MeasurementInfo{}, err
	}
	return describeLoaded(id, m, len(data)), nil
}

// describeLoaded builds listing metadata from a live release.
func describeLoaded(id string, m *synth.Measurements, size int) MeasurementInfo {
	info := MeasurementInfo{
		ID:        id,
		Eps:       m.Eps,
		TotalCost: m.TotalCost,
		Kinds:     []string{"degseq", "ccdf", "nodecount"},
		Bytes:     size,
	}
	for _, name := range m.FitNames() {
		info.Kinds = append(info.Kinds, name)
		if fit := m.Fits[name]; fit.Bucket > 1 {
			if info.Buckets == nil {
				info.Buckets = make(map[string]int)
			}
			info.Buckets[name] = fit.Bucket
		}
	}
	return info
}

// Put serializes m and stores it, returning its metadata. Storing the
// same release twice is an idempotent no-op (same content, same ID).
func (st *Store) Put(m *synth.Measurements) (MeasurementInfo, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return MeasurementInfo{}, err
	}
	data := buf.Bytes()
	id := contentID(data)
	info := describeLoaded(id, m, len(data))
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.entries[id]; ok {
		return prev.info, nil
	}
	if st.dir != "" {
		if err := st.write(filepath.Join(st.dir, id+".json"), data); err != nil {
			return MeasurementInfo{}, fmt.Errorf("%w: persisting measurement: %v", ErrInternal, err)
		}
	}
	st.entries[id] = storeEntry{info: info, data: data}
	st.order = append(st.order, id)
	measurementsStored.Inc()
	return info, nil
}

// List returns every stored release's metadata in insertion order.
func (st *Store) List() []MeasurementInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]MeasurementInfo, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.entries[id].info)
	}
	return out
}

// Info returns one release's metadata.
func (st *Store) Info(id string) (MeasurementInfo, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok {
		return MeasurementInfo{}, fmt.Errorf("%w: measurement %s", ErrNotFound, id)
	}
	return e.info, nil
}

// Bytes returns the exact stored bytes of one release.
func (st *Store) Bytes(id string) ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: measurement %s", ErrNotFound, id)
	}
	return append([]byte(nil), e.data...), nil
}

// Load deserializes one release. The rng salts the noise derived for
// records outside the release (see synth.LoadMeasurements).
func (st *Store) Load(id string, rng *rand.Rand) (*synth.Measurements, error) {
	data, err := st.Bytes(id)
	if err != nil {
		return nil, err
	}
	return synth.LoadMeasurements(bytes.NewReader(data), rng)
}
