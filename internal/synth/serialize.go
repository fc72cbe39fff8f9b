package synth

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"wpinq/internal/core"
	"wpinq/internal/queries"
	"wpinq/internal/workload"
)

// Serialization of released measurements. Once Measure has run, the
// protected graph can be discarded and the measurements stored: they are
// differentially private, so the file is safe to share, and synthesis can
// run later (or elsewhere) from the file alone.
//
// Format v2 ("wpinq-measurements v2") stores the fit measurements as a
// name-keyed list: each registered workload's histogram serializes to
// canonically sorted (JSON key, count) entries, so any workload the
// registry knows — not just the original TbI/TbD/JDD trio — round-trips.
// Save output is canonical (workloads sorted by name, entries sorted by
// key bytes): identical measurements serialize to identical bytes, which
// is what lets the service's measurement store address releases by
// content hash. LoadMeasurements reads exactly what Save writes: the
// pre-registry layouts (v1's fixed tbi/tbd/jdd fields, and the bare JSON
// body that preceded the header) are refused with ErrMeasurementFormat.

// ErrMeasurementFormat reports a measurements file in a layout this
// package no longer reads (a `wpinq-measurements v1` header, or a JSON
// body with no header line): nothing writes them, so nothing loads them.
var ErrMeasurementFormat = errors.New("synth: measurements are in a retired pre-v2 format")

// measurementsJSON is the on-disk layout.
type measurementsJSON struct {
	Version   int        `json:"version"`
	Eps       float64    `json:"eps"`
	TotalCost float64    `json:"totalCost"`
	DegSeq    []intCount `json:"degSeq"`
	CCDF      []intCount `json:"ccdf"`
	NodeCount float64    `json:"nodeCount"`
	// Fits is the fit-measurement list, sorted by workload name.
	Fits []fitJSON `json:"fits,omitempty"`
}

// fitJSON is one workload's released histogram: the registry name, the
// degree bucket width the measurement was taken with (bucketed
// workloads only), and the canonical entry list.
type fitJSON struct {
	Name    string           `json:"name"`
	Bucket  int              `json:"bucket,omitempty"`
	Entries []workload.Entry `json:"entries"`
}

type intCount struct {
	Index int     `json:"i"`
	Count float64 `json:"c"`
}

const serializationVersion = 2

// formatHeader is the first line of every measurements file:
// a magic string plus the format version, so tools (and future versions
// of this package) can identify and dispatch on the format without
// parsing the JSON body. The JSON body repeats the version for
// defense in depth.
const formatHeader = "wpinq-measurements"

// Save writes the released measurements as a one-line format-version
// header followed by JSON.
func (m *Measurements) Save(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s v%d\n", formatHeader, serializationVersion); err != nil {
		return err
	}
	out := measurementsJSON{
		Version:   serializationVersion,
		Eps:       m.Eps,
		TotalCost: m.TotalCost,
		NodeCount: m.NodeCount.Get(queries.Unit{}),
	}
	// Entries are sorted so identical measurements serialize to identical
	// bytes: Save output is canonical, which is what lets a measurement
	// store address releases by content hash.
	for i, c := range m.DegSeq.Materialized() {
		out.DegSeq = append(out.DegSeq, intCount{i, c})
	}
	sort.Slice(out.DegSeq, func(i, j int) bool { return out.DegSeq[i].Index < out.DegSeq[j].Index })
	for i, c := range m.CCDF.Materialized() {
		out.CCDF = append(out.CCDF, intCount{i, c})
	}
	sort.Slice(out.CCDF, func(i, j int) bool { return out.CCDF[i].Index < out.CCDF[j].Index })
	for _, name := range m.FitNames() {
		fit := m.Fits[name]
		entries, err := fit.Entries()
		if err != nil {
			return fmt.Errorf("synth: serializing %s: %w", name, err)
		}
		if entries == nil {
			entries = []workload.Entry{}
		}
		out.Fits = append(out.Fits, fitJSON{Name: name, Bucket: fit.Bucket, Entries: entries})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// LoadMeasurements reads measurements saved by Save. The supplied rng
// draws one salt per histogram, from which the noise of every record
// outside the release is derived (NoisyCount answers for the whole domain,
// and keeps doing so after serialization).
func LoadMeasurements(r io.Reader, rng *rand.Rand) (*Measurements, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return nil, fmt.Errorf("synth: reading measurements header: %w", err)
	}
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "{") {
		return nil, fmt.Errorf("%w: no %q header line", ErrMeasurementFormat, formatHeader)
	}
	var v int
	if _, err := fmt.Sscanf(line, formatHeader+" v%d", &v); err != nil {
		return nil, fmt.Errorf("synth: not a measurements file (header %q)", line)
	}
	if v > 0 && v < serializationVersion {
		return nil, fmt.Errorf("%w: header says v%d", ErrMeasurementFormat, v)
	}
	if v != serializationVersion {
		return nil, fmt.Errorf("synth: unsupported measurements format version %d", v)
	}
	var in measurementsJSON
	if err := json.NewDecoder(br).Decode(&in); err != nil {
		return nil, fmt.Errorf("synth: decoding measurements: %w", err)
	}
	if in.Version != serializationVersion {
		return nil, fmt.Errorf("synth: measurements header says v%d but document says v%d", v, in.Version)
	}
	if in.Eps <= 0 {
		return nil, fmt.Errorf("synth: invalid eps %v in measurements", in.Eps)
	}
	m := &Measurements{
		Eps:       in.Eps,
		TotalCost: in.TotalCost,
		Fits:      make(map[string]workload.Measured),
	}
	seq := make(map[int]float64, len(in.DegSeq))
	for _, p := range in.DegSeq {
		seq[p.Index] = p.Count
	}
	if m.DegSeq, err = core.HistogramFromMaterialized(seq, in.Eps, rng); err != nil {
		return nil, err
	}
	ccdf := make(map[int]float64, len(in.CCDF))
	for _, p := range in.CCDF {
		ccdf[p.Index] = p.Count
	}
	if m.CCDF, err = core.HistogramFromMaterialized(ccdf, in.Eps, rng); err != nil {
		return nil, err
	}
	if m.NodeCount, err = core.HistogramFromMaterialized(
		map[queries.Unit]float64{{}: in.NodeCount}, in.Eps, rng); err != nil {
		return nil, err
	}
	for _, f := range in.Fits {
		w, err := workload.Get(f.Name)
		if err != nil {
			return nil, fmt.Errorf("synth: measurements contain %w", err)
		}
		fit, err := w.Load(f.Entries, f.Bucket, in.Eps, rng)
		if err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		m.Fits[f.Name] = fit
	}
	return m, nil
}
