package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one metric's raw observations in the metric's unit.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of sorted values by linear
// interpolation between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

func (s sample) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// fastShare is where a run reads its time and rate metrics off its
// rounds: the quartile at the fast end. The shared host only ever adds
// time to a round (a neighbour on the core's other hardware thread, a
// slow minute), and in a bad minute it does so to most rounds of a run:
// over blocks of 15 repeats of one identical fit the block medians spread
// 16.7 % while the fast quartiles spread 7.7 % (README.md, "Steadiness").
// Further out the fastest round is one lucky sample, and where rounds
// differ in their inputs too (a new graph each) the far end follows the
// few cheapest inputs; the quartile has samples on both sides.
const fastShare = 0.25

// fast returns the fastShare quantile of s from the fast end: the low
// end of times, the high end of rates.
func (s sample) fast(rate bool) float64 {
	if rate {
		return quantile(s.sorted(), 1-fastShare)
	}
	return quantile(s.sorted(), fastShare)
}

// tail returns an upper percentile of s as the tail latency, with its
// label. The rule of thumb is the highest percentile that still has at
// least ten samples beyond it, capped at p90 (reached at 110 samples).
// With few samples that rule lands near the median, and the maximum of
// a dozen rounds is one noise burst away from anything, so the tail is
// never taken below the upper quartile.
func (s sample) tail() (float64, string) {
	v := s.sorted()
	if len(v) == 0 {
		return 0, "none"
	}
	q := float64(len(v)-11) / float64(len(v))
	q = math.Min(0.9, math.Max(0.75, q))
	return quantile(v, q), fmt.Sprintf("p%d", int(math.Round(100*q)))
}

// metric is one reported number. Only Value and Unit are part of the
// driver contract; the rest describe the within-run spread for
// `bench compare`.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// summarize reports value (a statistic of s chosen by the caller) with
// the spread of the underlying sample.
func summarize(value float64, unit string, s sample) metric {
	v := s.sorted()
	m := metric{Value: value, Unit: unit, N: len(v)}
	if len(v) > 1 {
		m.Min, m.Q1, m.Q3, m.Max = v[0], quantile(v, 0.25), quantile(v, 0.75), v[len(v)-1]
	}
	return m
}

func medianMetric(unit string, s sample) metric { return summarize(s.median(), unit, s) }

// fastMetric reports a time (or, with rate, a rate) sample at its fast
// end (see fastShare) and notes the median beside it.
func fastMetric(unit string, s sample, rate bool) metric {
	m := summarize(s.fast(rate), unit, s)
	m.Note = fmt.Sprintf("median %.6g", s.median())
	return m
}

func scalar(value float64, unit string) metric { return metric{Value: value, Unit: unit, N: 1} }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// resetPeakRSS restarts the VmHWM high-water mark from the current
// resident set (Linux: writing 5 to clear_refs). It reports whether the
// kernel accepted; without it VmHWM stays the process-lifetime peak.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// subSeed derives an independent, reproducible seed for one use of the
// run seed (splitmix64 over the packed arguments).
func subSeed(seed int64, round int, purpose uint64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + purpose*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}
