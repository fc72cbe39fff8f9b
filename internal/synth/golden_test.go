package synth

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenV2MeasurementsRoundTrip pins the current format: the v2
// golden (a release with every measurement kind populated) must load
// with its bookkeeping intact and save back to byte-identical output
// (Save stays canonical).
func TestGoldenV2MeasurementsRoundTrip(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "measurements.v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMeasurements(bytes.NewReader(v2), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("golden v2 release no longer loads: %v", err)
	}
	if m.Eps != 1 || m.TotalCost != 20 {
		t.Errorf("golden bookkeeping: eps=%g cost=%g", m.Eps, m.TotalCost)
	}
	if got, want := m.FitNames(), []string{"jdd", "tbd", "tbi"}; !reflect.DeepEqual(got, want) {
		t.Errorf("golden fits = %v, want %v", got, want)
	}
	if got := m.Fits["tbd"].Bucket; got != 5 {
		t.Errorf("golden tbd bucket = %d, want 5", got)
	}
	if m.DegSeq == nil || m.CCDF == nil || m.NodeCount == nil {
		t.Error("golden release lost a seed measurement")
	}

	var out bytes.Buffer
	if err := m.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Error("save(load(v2 golden)) != v2 golden: Save is no longer canonical")
	}
}

// TestLoadRefusesPreV2Formats pins the retirement of the pre-registry
// layouts: a v1 header (fixed tbi/tbd/jdd fields) and a bare JSON body
// with no header line — nothing has written either since the workload
// registry — fail with ErrMeasurementFormat instead of loading.
func TestLoadRefusesPreV2Formats(t *testing.T) {
	const v1Body = `{"version":1,"eps":1,"totalCost":20,"degSeq":[{"i":0,"c":3.5}],"ccdf":[{"i":0,"c":4.5}],` +
		`"nodeCount":2.5,"tbdBucket":5,"tbi":12.25,"tbd":[{"t":[1,1,2],"c":0.5}],"jdd":[{"da":1,"db":2,"c":0.75}]}` + "\n"
	v2, err := os.ReadFile(filepath.Join("testdata", "measurements.v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, v2Body, ok := bytes.Cut(v2, []byte("\n"))
	if !ok {
		t.Fatal("golden file has no header line")
	}
	cases := map[string]string{
		"v1 header":                  "wpinq-measurements v1\n" + v1Body,
		"v1 header over a v2 body":   "wpinq-measurements v1\n" + string(v2Body),
		"bare v1 JSON, no header":    v1Body,
		"bare v2 JSON, no header":    string(v2Body),
		"bare JSON after whitespace": "  " + v1Body,
	}
	for name, in := range cases {
		if _, err := LoadMeasurements(strings.NewReader(in), rand.New(rand.NewSource(1))); !errors.Is(err, ErrMeasurementFormat) {
			t.Errorf("%s: got %v, want ErrMeasurementFormat", name, err)
		}
	}
}

func TestLoadRejectsUnknownHeader(t *testing.T) {
	cases := map[string]string{
		"wrong magic":    "not-wpinq v1\n{}",
		"future version": "wpinq-measurements v99\n{}",
		"empty":          "",
	}
	for name, in := range cases {
		if _, err := LoadMeasurements(strings.NewReader(in), rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
