package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// VerifyPlan is the one check for serialized plan bytes that come from
// outside the process — store files and peer responses. It accepts data as
// the plan for key only if FromJSON decodes it and Validate passes (the
// totals agree with the per-layer entries) and the decoded plan's own
// request hashes back to key, and returns the verified plan's totals.
//
// Verification is a pure function of (key, data), so its outcome is
// memoized by SHA-256(len(key) ‖ key ‖ data): the first time a pair is seen
// it gets the full check; a repeat of the identical pair returns the
// recorded totals after one hash. That is exactly as strong as re-decoding,
// because identical inputs give an identical outcome, while any changed
// byte — or the same bytes offered under another key — hashes to a
// different digest and is checked in full again. Only successes are
// recorded, in a table bounded at verifiedCap entries.
//
// VerifyPlan is safe for concurrent use.
func VerifyPlan(key string, data []byte) (Totals, error) {
	d := planDigest(key, data)
	if t, ok := verified.get(d); ok {
		return t, nil
	}
	plan, err := FromJSON(data)
	if err != nil {
		return Totals{}, err
	}
	got, err := Key(plan.Request)
	if err != nil {
		return Totals{}, err
	}
	if got != key {
		// Valid bytes answering another request: a store entry copied to the
		// wrong address, or a peer answering for another key.
		return Totals{}, errors.New("compile: plan's request does not hash to its key")
	}
	verified.put(d, plan.Totals)
	return plan.Totals, nil
}

// verifiedCap bounds the verified-plan table. An entry is a digest plus a
// Totals (≈250 B with map overhead), so the table stays under ≈1 MB.
const verifiedCap = 4096

// verified is the process-wide memo of successful VerifyPlan checks.
var verified = newVerifiedTable(verifiedCap)

// planDigest hashes a (key, data) pair. The key's length prefix makes the
// encoding unambiguous: no key/data split of one byte string collides with
// another.
func planDigest(key string, data []byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(key)))
	h.Write(n[:])
	io.WriteString(h, key)
	h.Write(data)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// verifiedTable is a bounded digest → Totals map with first-in-first-out
// eviction: ring holds the digests in insertion order, and once the table
// is full each insertion evicts the oldest.
type verifiedTable struct {
	mu   sync.Mutex
	m    map[[sha256.Size]byte]Totals
	ring [][sha256.Size]byte
	next int // ring slot the next insertion takes
}

func newVerifiedTable(capacity int) *verifiedTable {
	return &verifiedTable{
		m:    make(map[[sha256.Size]byte]Totals),
		ring: make([][sha256.Size]byte, capacity),
	}
}

func (t *verifiedTable) get(d [sha256.Size]byte) (Totals, bool) {
	t.mu.Lock()
	tot, ok := t.m[d]
	t.mu.Unlock()
	return tot, ok
}

func (t *verifiedTable) put(d [sha256.Size]byte, tot Totals) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[d]; ok {
		return // a concurrent verifier of the same pair got here first
	}
	if len(t.m) == len(t.ring) {
		delete(t.m, t.ring[t.next])
	}
	t.m[d] = tot
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
}
