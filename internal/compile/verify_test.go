package compile

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// goldenPlan returns the committed VGG-13 plan bytes and the key of the
// request they answer.
func goldenPlan(t testing.TB) (string, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "vgg13_512_plan.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(NewRequest(model.VGG13(), array512, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return key, data
}

// tinyPlan compiles a one-layer network named name and returns its key and
// compact serialized bytes.
func tinyPlan(t testing.TB, name string) (string, []byte) {
	t.Helper()
	n := model.Single(core.Layer{Name: "c1", IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: 8})
	n.Name = name
	req := NewRequest(n, core.Array{Rows: 64, Cols: 64}, Options{})
	key, err := Key(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(core.Serial{}).Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return key, buf.Bytes()
}

func TestVerifyPlanAcceptsGolden(t *testing.T) {
	key, data := goldenPlan(t)
	want, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	before := verified.Stats()
	for i := 0; i < 2; i++ { // full check, then the memoized repeat
		got, err := VerifyPlan(key, data)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got != want.Totals {
			t.Fatalf("call %d: totals %+v, want %+v", i, got, want.Totals)
		}
	}
	if after := verified.Stats(); after.Hits == before.Hits {
		t.Error("repeat of a verified pair was checked again, not served from the memo")
	}
}

func TestVerifyPlanRejects(t *testing.T) {
	key, data := goldenPlan(t)
	otherKey, _ := tinyPlan(t, "other")
	// Verify the genuine pair first, so every rejection below is made with
	// the memo already holding these exact bytes.
	if _, err := VerifyPlan(key, data); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		key  string
		data []byte
	}{
		{"truncated", key, data[:len(data)/2]},
		{"garbage", key, []byte("{not json")},
		{"totals-tampered", key, bytes.Replace(data, []byte(`"Cycles": `), []byte(`"Cycles": 9`), 1)},
		{"layer-tampered", key, bytes.Replace(data, []byte(`"IC": 64`), []byte(`"IC": 65`), 1)},
		{"wrong-key", otherKey, data},
		{"empty-key", "", data},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if bytes.Equal(tc.data, data) && tc.key == key {
				t.Fatal("case does not differ from the verified pair")
			}
			for i := 0; i < 2; i++ { // a rejection is never memoized
				if tot, err := VerifyPlan(tc.key, tc.data); err == nil {
					t.Fatalf("call %d accepted, totals %+v", i, tot)
				}
			}
		})
	}
}

// TestVerifyPlanConcurrent runs VerifyPlan from many goroutines on shared
// and distinct pairs, valid and not; run it under -race.
func TestVerifyPlanConcurrent(t *testing.T) {
	goldenKey, golden := goldenPlan(t)
	want, err := FromJSON(golden)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	keys := make([]string, workers)
	datas := make([][]byte, workers)
	for i := range keys {
		keys[i], datas[i] = tinyPlan(t, fmt.Sprintf("concurrent-%d", i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := VerifyPlan(goldenKey, golden); err != nil || got != want.Totals {
					errs <- fmt.Errorf("shared pair: totals %+v, err %v", got, err)
					return
				}
				if _, err := VerifyPlan(keys[w], datas[w]); err != nil {
					errs <- fmt.Errorf("distinct pair %d: %v", w, err)
					return
				}
				if _, err := VerifyPlan(keys[(w+1)%workers], datas[w]); err == nil {
					errs <- fmt.Errorf("pair %d accepted under a neighbour's key", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzVerifyPlan fuzzes the single entry point for untrusted plan bytes
// (store files, peer responses). Whatever it accepts must be a plan that
// decodes, validates and re-keys to the key it was offered under, and a
// second call must agree.
func FuzzVerifyPlan(f *testing.F) {
	key, data := goldenPlan(f)
	f.Add(key, data)
	tinyKey, tiny := tinyPlan(f, "fuzz")
	f.Add(tinyKey, tiny)
	f.Add(key, tiny)
	f.Add("", []byte("{}"))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		totals, err := VerifyPlan(key, data)
		if err != nil {
			return
		}
		p, err := FromJSON(data)
		if err != nil {
			t.Fatalf("accepted bytes fail FromJSON: %v", err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted plan fails Validate: %v", err)
		}
		if got, err := Key(p.Request); err != nil || got != key {
			t.Fatalf("accepted plan re-keys to %q (err %v), offered under %q", got, err, key)
		}
		if p.Totals != totals {
			t.Fatalf("returned totals %+v, plan has %+v", totals, p.Totals)
		}
		again, err := VerifyPlan(key, data)
		if err != nil || again != totals {
			t.Fatalf("second call: totals %+v, err %v; first %+v", again, err, totals)
		}
	})
}
