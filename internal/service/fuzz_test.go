package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzRequestDecoders sends arbitrary bytes as the body of both JSON
// endpoints of a fresh service holding one small dataset. Each
// answer is a 2xx or a 4xx carrying a coded APIError — never a 5xx, never
// a panic — and a 4xx leaves the dataset's ledger exactly where it was.
func FuzzRequestDecoders(f *testing.F) {
	for _, seed := range []string{
		`{"eps":1,"workloads":["tbi"],"seed":3}`,
		`{"measurement":"m1","steps":50,"workloads":["tbi"],"seed":4}`,
		`{"eps":0.5,"workloads":["wedges"],"keep":true,"measurement":"m1","steps":10,"shards":1}`,
		`{"steps":1}garbage`,
		`{"eps":1e999,"workloads":["tbi"]}`,
		`{"eps":-1,"workloads":["tbi"]}`,
		`{"workloads":"tbi"}`,
		`{"resume":"j1"}`,
		`{"shards":null,"steps":9223372036854775807}`,
		`null`, `[]`, `""`, ``, ` `, `{`, "\x00\xff",
		strings.Repeat("[", 10000),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, err := New(Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		info, err := svc.Registry().Upload("g", 100, strings.NewReader("0 1\n1 2\n0 2\n2 3\n"))
		if err != nil {
			t.Fatal(err)
		}
		h := svc.Handler()
		for _, path := range []string{"/v1/datasets/" + info.ID + "/measure", "/v1/jobs"} {
			before, err := svc.Registry().Info(info.ID)
			if err != nil {
				t.Fatal(err)
			}
			rec := postRaw(h, path, body)
			switch {
			case rec.Code >= 200 && rec.Code < 300:
			case rec.Code >= 400 && rec.Code < 500:
				var api APIError
				if err := json.Unmarshal(rec.Body.Bytes(), &api); err != nil || api.Code == "" {
					t.Fatalf("POST %s: %d with an untyped body %q (%v)", path, rec.Code, rec.Body, err)
				}
				after, err := svc.Registry().Info(info.ID)
				if err != nil || math.Float64bits(after.Ledger.Spent) != math.Float64bits(before.Ledger.Spent) {
					t.Fatalf("POST %s: refused with %d %s, yet spent went %v -> %v (err %v)",
						path, rec.Code, api.Code, before.Ledger.Spent, after.Ledger.Spent, err)
				}
			default:
				t.Fatalf("POST %s: status %d, body %q", path, rec.Code, rec.Body)
			}
		}
	})
}
