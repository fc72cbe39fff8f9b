package service

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
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
//
// It keeps an index in memory and the bytes in the one directory it
// writes to: everything it serves is read back from its file.
type Store struct {
	dir string
	log *slog.Logger

	mu    sync.Mutex
	index map[string]MeasurementInfo // release ID -> listing metadata
	order []string                   // insertion order, for stable listings
	prov  map[string][]ProvenanceRecord

	write func(path string, data []byte) error // writeAtomic; tests make a chosen step of it fail
	read  func(path string) ([]byte, error)    // os.ReadFile; tests record the paths it opens
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

// NewStore opens (and if needed creates) a store rooted at dir,
// indexing every previously persisted measurement and verifying the
// provenance ledger. logger receives boot-time repair warnings (torn
// provenance tails); nil discards them.
func NewStore(dir string, logger *slog.Logger) (*Store, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	st := &Store{
		dir:   dir,
		log:   logger,
		index: make(map[string]MeasurementInfo),
		prov:  make(map[string][]ProvenanceRecord),
		write: writeAtomic,
		read:  os.ReadFile,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating store dir: %w", err)
	}
	// A crash between a temp file's creation and its rename leaves it
	// behind; nothing ever acknowledged it.
	tmps, err := st.files("*.tmp")
	if err != nil {
		return nil, err
	}
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
	names, err := st.files("m*.json")
	if err != nil {
		return nil, err
	}
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
		st.index[id] = info
		st.order = append(st.order, id)
	}
	if err := st.loadProvenance(); err != nil {
		return nil, err
	}
	return st, nil
}

// Dir returns the directory the store reads and writes.
func (st *Store) Dir() string { return st.dir }

// files returns the paths of the store dir's files whose names match
// pattern, sorted. The directory is listed, not globbed: its own path
// may hold glob metacharacters.
func (st *Store) files(pattern string) ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	var out []string
	for _, e := range entries {
		if ok, _ := filepath.Match(pattern, e.Name()); ok {
			out = append(out, filepath.Join(st.dir, e.Name()))
		}
	}
	return out, err
}

// checkpointPath names a job's checkpoint file under the store dir. Job
// IDs are j<N>, so the name set is disjoint from measurement blobs
// (m<hash>.json) and the provenance ledger.
func (st *Store) checkpointPath(jobID string) string {
	return filepath.Join(st.dir, "ckpt-"+jobID+".json")
}

// PutCheckpoint persists a job's serialized checkpoint, replacing any
// previous one, atomically (writeAtomic): a crash mid-checkpoint leaves
// the previous checkpoint intact, never a torn half-document. jobID is
// one the job manager issued or recovered, never a request's.
func (st *Store) PutCheckpoint(jobID string, data []byte) error {
	if err := st.write(st.checkpointPath(jobID), data); err != nil {
		return fmt.Errorf("%w: persisting checkpoint: %v", ErrInternal, err)
	}
	return nil
}

// Checkpoint returns a job's persisted checkpoint bytes, read from its
// file. jobID may come from a request, so only the j<N> form the job
// manager issues names a file: anything else is ErrNotFound, and no file
// is opened.
func (st *Store) Checkpoint(jobID string) ([]byte, error) {
	if _, ok := jobNumber(jobID); !ok {
		return nil, fmt.Errorf("%w: no checkpoint for job %s", ErrNotFound, jobID)
	}
	data, err := st.read(st.checkpointPath(jobID))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: no checkpoint for job %s", ErrNotFound, jobID)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading checkpoint: %v", ErrInternal, err)
	}
	return data, nil
}

// DeleteCheckpoint removes a job's checkpoint (no-op if absent).
func (st *Store) DeleteCheckpoint(jobID string) error {
	if err := os.Remove(st.checkpointPath(jobID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: deleting checkpoint: %v", ErrInternal, err)
	}
	return nil
}

// Checkpoints returns the job IDs with a checkpoint file on disk, sorted.
func (st *Store) Checkpoints() []string {
	names, _ := st.files("ckpt-*.json") // on a listing error, what was listed
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "ckpt-"), ".json")
	}
	sort.Strings(out)
	return out
}

// contentID derives the content-addressed ID of a saved release: the
// first 16 hex digits of its ContentHash.
func contentID(data []byte) string { return idOf(ContentHash(data)) }

// idOf is the release ID a ContentHash names.
func idOf(hash string) string { return "m" + hash[:16] }

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
	info, _, err := st.put(m)
	return info, err
}

// put is Put, also returning the stored bytes and their ContentHash —
// what a provenance record names — so that chaining a fresh release reads
// nothing back and hashes it once.
func (st *Store) put(m *synth.Measurements) (info MeasurementInfo, s stored, err error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return MeasurementInfo{}, stored{}, err
	}
	s = stored{data: buf.Bytes()}
	s.hash = ContentHash(s.data)
	id := idOf(s.hash)
	info = describeLoaded(id, m, len(s.data))
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.index[id]; ok {
		return prev, s, nil
	}
	if err := st.write(filepath.Join(st.dir, id+".json"), s.data); err != nil {
		return MeasurementInfo{}, stored{}, fmt.Errorf("%w: persisting measurement: %v", ErrInternal, err)
	}
	st.index[id] = info
	st.order = append(st.order, id)
	measurementsStored.Inc()
	return info, s, nil
}

// stored is a release's bytes with their ContentHash.
type stored struct {
	data []byte
	hash string
}

// List returns every stored release's metadata in insertion order.
func (st *Store) List() []MeasurementInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]MeasurementInfo, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.index[id])
	}
	return out
}

// Info returns one release's metadata.
func (st *Store) Info(id string) (MeasurementInfo, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	info, ok := st.index[id]
	if !ok {
		return MeasurementInfo{}, fmt.Errorf("%w: measurement %s", ErrNotFound, id)
	}
	return info, nil
}

// Bytes returns the exact stored bytes of one release, read from its
// file. Only an ID in the index names a file, and bytes that no longer
// hash to their ID are ErrInternal: what is served is what the
// provenance ledger hashed.
func (st *Store) Bytes(id string) ([]byte, error) {
	s, err := st.verified(id)
	return s.data, err
}

// verified reads one release from its file and verifies it (see Bytes),
// returning the bytes with the ContentHash it verified them by.
func (st *Store) verified(id string) (stored, error) {
	if _, err := st.Info(id); err != nil {
		return stored{}, err
	}
	data, err := st.read(filepath.Join(st.dir, id+".json"))
	if err != nil {
		return stored{}, fmt.Errorf("%w: reading measurement %s: %v", ErrInternal, id, err)
	}
	hash := ContentHash(data)
	if got := idOf(hash); got != id {
		return stored{}, fmt.Errorf("%w: measurement %s on disk hashes to %s", ErrInternal, id, got)
	}
	return stored{data: data, hash: hash}, nil
}

// Load deserializes one release. The rng salts the noise derived for
// records outside the release (see synth.LoadMeasurements).
func (st *Store) Load(id string, rng *rand.Rand) (*synth.Measurements, error) {
	m, _, err := st.load(id, rng)
	return m, err
}

// load is Load, also returning the ContentHash the release was verified
// by: the parent hash a durable job's checkpoints carry.
func (st *Store) load(id string, rng *rand.Rand) (*synth.Measurements, string, error) {
	s, err := st.verified(id)
	if err != nil {
		return nil, "", err
	}
	m, err := synth.LoadMeasurements(bytes.NewReader(s.data), rng)
	return m, s.hash, err
}
