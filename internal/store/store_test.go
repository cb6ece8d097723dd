package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/model"
)

// testPlan compiles a small network and returns its key and serialized
// bytes — the exact artifacts the serving layer hands a Store.
func testPlan(t testing.TB, name string, oc int) (string, []byte) {
	t.Helper()
	n := model.Single(core.Layer{Name: name, IW: 8, IH: 8, KW: 3, KH: 3, IC: 4, OC: oc})
	n.Name = name
	req := compile.NewRequest(n, core.Array{Rows: 64, Cols: 64}, compile.Options{})
	key, err := compile.Key(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compile.New(nil).Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return key, buf.Bytes()
}

func open(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// frame encodes one record the way PutPlan does, for writing segments by
// hand.
func frame(key string, plan []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(plan)))
	rec = binary.LittleEndian.AppendUint32(rec, crc(append([]byte(key), plan...)))
	return append(append(rec, key...), plan...)
}

// files lists the directory's entries by name.
func files(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// onlySegment returns the path of the directory's single segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	names := files(t, dir)
	if len(names) != 1 || filepath.Ext(names[0]) != ".seg" {
		t.Fatalf("store directory holds %q, want exactly one segment", names)
	}
	return filepath.Join(dir, names[0])
}

// rewrite replaces the segment's bytes through fn.
func rewrite(t *testing.T, path string, fn func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// tamperTotals edits a plan's cycle total — still valid JSON, but its totals
// no longer match its layers.
func tamperTotals(d []byte) []byte {
	return bytes.Replace(d, []byte(`"Totals":{"Cycles":`), []byte(`"Totals":{"Cycles":9`), 1)
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	key, data := testPlan(t, "rt", 4)

	if _, _, ok := s.GetPlan(key); ok {
		t.Fatal("unexpected hit on empty store")
	}
	s.PutPlan(key, data)
	s.Flush()
	got, totals, ok := s.GetPlan(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if !bytes.Equal(got, data) {
		t.Error("loaded bytes differ from stored bytes")
	}
	want, err := compile.FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if want.Network.Name != "rt" || totals != want.Totals || totals.Cycles <= 0 {
		t.Errorf("loaded totals = %+v, want %+v of plan %q", totals, want.Totals, want.Network.Name)
	}
	st := s.StoreStats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 write, 0 corrupt", st)
	}
}

func TestReopenStaysWarm(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	key, data := testPlan(t, "reopen", 4)
	s.PutPlan(key, data)
	s.Flush()

	s2 := open(t, dir)
	if n := s2.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	got, _, ok := s2.GetPlan(key)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("reopened store: hit=%v, bytes equal=%v", ok, bytes.Equal(got, data))
	}
}

func TestPutDeduplicates(t *testing.T) {
	s := open(t, t.TempDir())
	key, data := testPlan(t, "dedup", 4)
	s.PutPlan(key, data)
	s.Flush()
	s.PutPlan(key, data)
	s.Flush()
	if w := s.StoreStats().Writes; w != 1 {
		t.Errorf("writes = %d, want 1 (second put of an existing entry skipped)", w)
	}
}

// A record whose CRC holds but whose plan bytes fail compile.VerifyPlan is
// quarantined: dropped from the index, counted, never served, and the next
// put of the key appends a good copy that serves.
func TestCorruptEntryQuarantined(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"garbage", func(d []byte) []byte { return []byte("{not json") }},
		{"totals-tampered", tamperTotals},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir)
			key, data := testPlan(t, "corrupt", 4)
			s.PutPlan(key, tc.fn(bytes.Clone(data)))

			if _, _, ok := s.GetPlan(key); ok {
				t.Fatal("corrupt entry served")
			}
			if st := s.StoreStats(); st.Corrupt != 1 || s.Len() != 0 {
				t.Errorf("corrupt = %d, Len = %d; want 1 and 0 (dropped from the index)", st.Corrupt, s.Len())
			}
			// The key is unindexed again: a recompute appends a good copy,
			// which serves here and wins over the bad one after a reopen.
			s.PutPlan(key, data)
			if got, _, ok := s.GetPlan(key); !ok || !bytes.Equal(got, data) {
				t.Error("recomputed entry not served")
			}
			if got, _, ok := open(t, dir).GetPlan(key); !ok || !bytes.Equal(got, data) {
				t.Error("recomputed entry not served after a reopen")
			}
			if names := files(t, dir); len(names) != 1 {
				t.Errorf("store directory holds %q, want one segment and no quarantine files", names)
			}
		})
	}
}

// A flipped byte inside record 2 of 3 fails its CRC: that key alone misses
// and counts as corrupt, whether the damage is found by a live handle's read
// or by the replay of a later Open; records 1 and 3 still hit.
func TestFlippedByteCorruptsOneRecord(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	var keys []string
	var plans [][]byte
	for i := range 3 {
		key, data := testPlan(t, fmt.Sprintf("rec%d", i), 4)
		s.PutPlan(key, data)
		keys, plans = append(keys, key), append(plans, data)
	}
	seg := onlySegment(t, dir)
	rewrite(t, seg, func(d []byte) []byte {
		rec2 := len(frame(keys[0], plans[0]))
		d[rec2+headerLen+len(keys[1])+len(plans[1])/2] ^= 0x20
		return d
	})
	for name, h := range map[string]*Store{"live": s, "reopened": open(t, dir)} {
		for i, key := range keys {
			got, _, ok := h.GetPlan(key)
			if want := i != 1; ok != want || (ok && !bytes.Equal(got, plans[i])) {
				t.Errorf("%s handle, record %d: hit = %v, want %v", name, i+1, ok, want)
			}
		}
		if c := h.StoreStats().Corrupt; c != 1 {
			t.Errorf("%s handle: corrupt = %d, want 1", name, c)
		}
	}
}

func TestWrongKeyEntryQuarantined(t *testing.T) {
	// A CRC-valid record whose plan answers another request: the only
	// "staleness" a content-addressed store can exhibit. The re-key check
	// must catch it.
	s := open(t, t.TempDir())
	keyA, dataA := testPlan(t, "a", 4)
	keyB, _ := testPlan(t, "b", 8)
	if keyA == keyB {
		t.Fatal("test requires distinct keys")
	}
	s.PutPlan(keyB, dataA) // plan A's bytes in key B's record
	if _, _, ok := s.GetPlan(keyB); ok {
		t.Fatal("mis-keyed record served")
	}
	if st := s.StoreStats(); st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
}

// A different key whose 64-bit index hash collides with a stored record's
// gets a miss, never the other key's plan, and nothing counts as corrupt.
func TestHashCollisionIsMiss(t *testing.T) {
	s := open(t, t.TempDir())
	keyA, dataA := testPlan(t, "stored", 4)
	keyB, _ := testPlan(t, "collides", 8)
	s.PutPlan(keyA, dataA)
	s.index[hash(keyB)] = s.index[hash(keyA)] // forge the collision
	if _, _, ok := s.GetPlan(keyB); ok {
		t.Fatal("another key's plan served on a hash collision")
	}
	if st := s.StoreStats(); st.Corrupt != 0 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 miss, 0 corrupt", st)
	}
	if _, _, ok := s.GetPlan(keyA); !ok {
		t.Error("stored key no longer served")
	}
}

// The verification memo must change nothing observable: a record that was
// verified once and is then damaged on disk, or whose verified bytes turn up
// under another key, is rejected exactly as if it had never been seen.

func TestEntryDamagedAfterVerifiedLoadQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	key, data := testPlan(t, "damaged-later", 4)
	s.PutPlan(key, data)
	if _, _, ok := s.GetPlan(key); !ok {
		t.Fatal("good entry not served")
	}
	// Overwrite the record in place with a CRC-valid frame of tampered bytes
	// of the same length, so only VerifyPlan can catch it.
	bad := tamperTotals(bytes.Clone(data))[:len(data)]
	if bytes.Equal(bad, data) {
		t.Fatal("tampering left the plan unchanged")
	}
	rewrite(t, onlySegment(t, dir), func([]byte) []byte { return frame(key, bad) })
	if _, _, ok := s.GetPlan(key); ok {
		t.Fatal("entry damaged after a verified load was served")
	}
	if st := s.StoreStats(); st.Corrupt != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 corrupt, 1 hit", st)
	}
}

func TestVerifiedEntryCopiedToWrongKeyQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	keyA, dataA := testPlan(t, "a-verified", 4)
	keyB, _ := testPlan(t, "b-verified", 8)
	s.PutPlan(keyA, dataA)
	if _, _, ok := s.GetPlan(keyA); !ok {
		t.Fatal("good entry not served under its own key")
	}
	s.PutPlan(keyB, dataA) // the very bytes just verified, under keyB
	if _, _, ok := s.GetPlan(keyB); ok {
		t.Fatal("verified bytes served under a key they do not answer")
	}
	if st := s.StoreStats(); st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
	if _, _, ok := s.GetPlan(keyA); !ok {
		t.Error("original entry no longer served")
	}
}

// A crash mid-append leaves a torn tail: Open keeps the whole frames before
// it, truncates the file to the last of them, and appends after it.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	keyA, dataA := testPlan(t, "before-tear", 4)
	keyB, dataB := testPlan(t, "torn", 4)
	keyC, dataC := testPlan(t, "after-tear", 4)
	good := frame(keyA, dataA)
	torn := frame(keyB, dataB)
	seg := filepath.Join(dir, segName(1))
	if err := os.WriteFile(seg, append(bytes.Clone(good), torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir)
	if _, _, ok := s.GetPlan(keyA); !ok {
		t.Error("record before the torn tail not served")
	}
	if _, _, ok := s.GetPlan(keyB); ok {
		t.Error("torn record served")
	}
	if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("segment not truncated to its last whole frame (%d bytes): %v, %v", len(good), fi.Size(), err)
	}
	if c := s.StoreStats().Corrupt; c != 0 {
		t.Errorf("corrupt = %d, want 0 (a torn tail is not corruption)", c)
	}
	s.PutPlan(keyC, dataC)
	onlySegment(t, dir) // the append went to the reclaimed segment

	s2 := open(t, dir)
	for _, key := range []string{keyA, keyC} {
		if _, _, ok := s2.GetPlan(key); !ok {
			t.Error("record not found after a reopen")
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestOneSegmentPerHandle(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := range 100 {
		s.PutPlan(testPlan(t, fmt.Sprintf("p%d", i), 4))
	}
	onlySegment(t, dir)
	if n := s.Len(); n != 100 {
		t.Errorf("Len = %d, want 100", n)
	}
}

// Two live handles on one directory each append to their own segment; a
// third Open replays both.
func TestTwoHandlesOneDirectory(t *testing.T) {
	dir := t.TempDir()
	h1, h2 := open(t, dir), open(t, dir)
	var keys []string
	for i := range 6 {
		key, data := testPlan(t, fmt.Sprintf("two%d", i), 4)
		[]*Store{h1, h2}[i%2].PutPlan(key, data)
		keys = append(keys, key)
	}
	if names := files(t, dir); len(names) != 2 {
		t.Fatalf("store directory holds %q, want two segments", names)
	}
	h3 := open(t, dir)
	if n := h3.Len(); n != len(keys) {
		t.Errorf("third handle Len = %d, want %d", n, len(keys))
	}
	for i, key := range keys {
		if _, _, ok := h3.GetPlan(key); !ok {
			t.Errorf("record %d (handle %d) not visible to the third handle", i, i%2+1)
		}
	}
	runtime.KeepAlive(h1) // both locks stay held until here
	runtime.KeepAlive(h2)
}

// Concurrent puts and gets of overlapping keys on one handle (run under
// -race) store each key once and serve every stored key.
func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir())
	keys := make([]string, 8)
	plans := make([][]byte, 8)
	for i := range keys {
		keys[i], plans[i] = testPlan(t, fmt.Sprintf("c%d", i), 4)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				j := (i + w) % len(keys)
				s.PutPlan(keys[j], plans[j])
				if got, _, ok := s.GetPlan(keys[j]); !ok || !bytes.Equal(got, plans[j]) {
					t.Errorf("key %d not served after its put", j)
				}
			}
		}()
	}
	wg.Wait()
	if st := s.StoreStats(); st.Writes != uint64(len(keys)) || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want %d writes, 0 corrupt", st, len(keys))
	}
}

// FuzzStoreSegment feeds arbitrary bytes to Open as a segment. Open must not
// panic or allocate past the bytes in the file (an all-ones length is a torn
// tail, not a 4 GiB buffer), and every plan GetPlan serves must pass
// compile.VerifyPlan.
func FuzzStoreSegment(f *testing.F) {
	keyA, dataA := testPlan(f, "fuzzA", 4)
	keyB, dataB := testPlan(f, "fuzzB", 8)
	valid := append(frame(keyA, dataA), frame(keyB, dataB)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[8] ^= 1 // first record's CRC
	f.Add(flipped)
	f.Add(append(bytes.Repeat([]byte{0xff}, headerLen), valid...))
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got [2][]byte
		for i, key := range []string{keyA, keyB} {
			got[i], _, _ = s.GetPlan(key)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(seg)) {
			t.Fatalf("Open and GetPlan allocated %d bytes for a %d-byte segment", grew, len(seg))
		}
		for i, key := range []string{keyA, keyB} {
			if got[i] == nil {
				continue
			}
			if _, err := compile.VerifyPlan(key, got[i]); err != nil {
				t.Fatalf("served plan fails VerifyPlan: %v", err)
			}
		}
	})
}
