package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"

	"wpinq/internal/laplace"
	"wpinq/internal/weighted"
)

// Histogram is the result of a NoisyCount aggregation (paper Section 2.2):
// a dictionary mapping records to noisy weights. To preserve differential
// privacy, a Histogram must answer for *every* record in the (possibly
// unbounded) domain, including records absent from the data. The records
// with non-zero true weight are stored at release; every other record's
// value is derived on each access.
//
// That derived noise is record-keyed, not stream-drawn: an unseen record's
// value is the Laplace quantile of a hash of (salt, record), a pure
// function of the histogram's seed and the record itself — so asking twice
// returns one value without anything being stored, and the order fit
// pipelines happen to touch records in cannot show. Plan transformations
// that reorder propagation (fusing shared prefixes, re-sharding an
// executor) therefore score candidate graphs identically instead of
// silently reassigning noise.
//
// Nothing writes a Histogram after its constructor returns, so it is safe
// for concurrent use without a lock.
type Histogram[T comparable] struct {
	counts map[T]float64
	dist   laplace.Dist
	salt   uint64
}

// Get returns the noisy count for record x: the released value if x had
// non-zero true weight, else the record-keyed noise derived from x.
func (h *Histogram[T]) Get(x T) float64 {
	if v, ok := h.counts[x]; ok {
		return v
	}
	return h.dist.Quantile(recordUniform(h.salt, x))
}

// recordUniform hashes (salt, record) to a uniform in (0,1): FNV-1a over
// the record's canonical JSON, finalized with a splitmix64 avalanche so
// structurally similar records land far apart, and mapped into the open
// interval Quantile requires by openUnit.
func recordUniform(salt uint64, x any) float64 {
	b, err := json.Marshal(x)
	if err != nil {
		// Every released record type round-trips through JSON (Entries,
		// the measurement store); a non-serializable record is a bug in
		// the workload definition, not a runtime condition.
		panic(fmt.Sprintf("core: histogram record %T is not JSON-serializable: %v", x, err))
	}
	f := fnv.New64a()
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], salt)
	f.Write(sb[:])
	f.Write(b)
	u := f.Sum64()
	u ^= u >> 30
	u *= 0xbf58476d1ce4e5b9
	u ^= u >> 27
	u *= 0x94d049bb133111eb
	u ^= u >> 31
	return openUnit(u)
}

// openUnit maps a 64-bit hash to the open interval (0,1) by its top 53
// bits: the midpoint of the k-th of 2^53 equal cells. The last cell's
// midpoint rounds to 1 in float64, so that one hash maps to the largest
// float below 1 instead; every other hash keeps the midpoint's bits.
func openUnit(u uint64) float64 {
	p := (float64(u>>11) + 0.5) / (1 << 53)
	if p == 1 {
		return math.Nextafter(1, 0)
	}
	return p
}

// Len returns the number of released records.
func (h *Histogram[T]) Len() int { return len(h.counts) }

// Materialized returns a copy of the release: the (record, noisy count)
// pair of every record that had non-zero true weight.
func (h *Histogram[T]) Materialized() map[T]float64 { return maps.Clone(h.counts) }

// Epsilon returns the per-use privacy parameter of the aggregation.
func (h *Histogram[T]) Epsilon() float64 { return 1 / h.dist.Scale() }

// HistogramFromMaterialized reconstructs a Histogram from previously
// released (record, noisy count) pairs — e.g. measurements loaded from
// disk after the protected dataset was discarded. Unseen records continue
// to derive noise at the same eps (record-keyed by a salt drawn from rng),
// preserving NoisyCount's semantics across serialization. No privacy
// budget is charged: the values were already released.
func HistogramFromMaterialized[T comparable](counts map[T]float64, eps float64, rng *rand.Rand) (*Histogram[T], error) {
	dist, err := laplace.FromEpsilon(eps)
	if err != nil {
		return nil, err
	}
	return &Histogram[T]{counts: maps.Clone(counts), dist: dist, salt: rng.Uint64()}, nil
}

// NoisyCount releases the weight of every record with Laplace(1/eps) noise:
//
//	NoisyCount(A, eps)(x) = A(x) + Laplace(1/eps)
//
// It charges every source in the collection's plan uses*eps of budget and
// fails (releasing nothing) if any budget would be overdrawn. The noise
// magnitude never depends on the query: wPINQ scales record weights down
// instead of scaling noise up.
//
// The budget is charged before the collection is evaluated, so a refused
// aggregation costs no query work either, unless Evaluate computed the
// collection in advance: that moves the work, not the charge or the noise.
//
// Noise is assigned in canonical record order (weighted.PairsSorted), not
// in the order the plan happened to produce records, so a fixed rng seed
// pins which record receives which draw: identically-seeded measurement
// runs are byte-identical, which content-addressed measurement stores
// depend on.
func NoisyCount[T comparable](c *Collection[T], eps float64, rng *rand.Rand) (*Histogram[T], error) {
	dist, err := laplace.FromEpsilon(eps)
	if err != nil {
		return nil, err
	}
	if err := c.uses.ChargeAll(eps); err != nil {
		return nil, err
	}
	data := c.dataset()
	h := &Histogram[T]{
		counts: make(map[T]float64, data.Len()),
		dist:   dist,
		salt:   rng.Uint64(),
	}
	for _, p := range data.PairsSorted() {
		h.counts[p.Record] = p.Weight + dist.Sample(rng)
	}
	return h, nil
}

// NoisySum releases sum_x f(x)*A(x) for a 1-Lipschitz valuation
// f : T -> [-1, 1], with Laplace(1/eps) noise. Values of f outside [-1, 1]
// are clamped, preserving the privacy guarantee regardless of the supplied
// function (paper Section 2.2 notes sum generalizes to weighted datasets).
func NoisySum[T comparable](c *Collection[T], eps float64, f func(T) float64, rng *rand.Rand) (float64, error) {
	dist, err := laplace.FromEpsilon(eps)
	if err != nil {
		return 0, err
	}
	if err := c.uses.ChargeAll(eps); err != nil {
		return 0, err
	}
	// Canonical accumulation order, for the same reason NoisyCount
	// sorts: float addition does not associate exactly, and the sum
	// should not depend on which plan produced the collection.
	var sum float64
	for _, p := range c.dataset().PairsSorted() {
		v := f(p.Record)
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		sum += v * p.Weight
	}
	return sum + dist.Sample(rng), nil
}

// ExponentialMechanism releases one of the candidate outputs r with
// probability proportional to exp(eps * score(r, A) / 2), for scoring
// functions that are 1-Lipschitz in the dataset (paper Section 2.2 notes
// the mechanism of McSherry-Talwar generalizes to weighted datasets).
func ExponentialMechanism[T comparable, R any](
	c *Collection[T], eps float64,
	candidates []R,
	score func(R, *weighted.Dataset[T]) float64,
	rng *rand.Rand,
) (R, error) {
	var zero R
	if len(candidates) == 0 {
		return zero, errNoCandidates
	}
	if err := c.uses.ChargeAll(eps); err != nil {
		return zero, err
	}
	// Gumbel-max sampling: argmax(eps*score/2 + Gumbel) is distributed as
	// the exponential mechanism, and avoids overflow in exp().
	data := c.dataset()
	best := 0
	bestVal := 0.0
	for i, r := range candidates {
		g := gumbel(rng)
		v := eps*score(r, data)/2 + g
		if i == 0 || v > bestVal {
			best, bestVal = i, v
		}
	}
	return candidates[best], nil
}

type noCandidatesError struct{}

func (noCandidatesError) Error() string { return "core: exponential mechanism requires candidates" }

var errNoCandidates = noCandidatesError{}

// gumbel samples from the standard Gumbel distribution.
func gumbel(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(-math.Log(u))
}
