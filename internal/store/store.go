// Package store is vwsdkd's persistent plan cache: an append-only,
// content-addressed log of plan bytes keyed by compile.Key, with an
// in-memory index. DESIGN.md §10.1–10.2 give the format and the protocol.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/compile"
)

// headerLen is a record's frame header: key length, plan length, CRC-32C.
const headerLen = 12

// entry locates a record: segs index, offset, length including the header.
type entry struct {
	off    int64
	seg, n uint32
}

// Store is a plan store rooted at a directory, safe for concurrent use. Any
// number of handles may share a directory, each appending to its own segment.
type Store struct {
	dir   string
	mu    sync.Mutex
	index map[uint64]entry
	segs  []*os.File
	w     int    // index in segs of the segment this handle appends to, or -1
	end   int64  // append offset in segs[w]
	next  int    // sequence number of the next segment to create
	buf   []byte // PutPlan's reused record buffer

	hits, misses, writes, corrupt atomic.Uint64
}

// Open opens (creating if needed) the store at dir: it replays every segment
// in creation order (a later record wins) and claims the newest one no live
// handle holds, truncating its torn tail; if all are held, PutPlan adds one.
func Open(dir string) (*Store, error) {
	os.MkdirAll(dir, 0o755)       // a failure surfaces as ReadDir's error
	names, err := os.ReadDir(dir) // sorted by name, that is by creation
	s := &Store{dir: dir, index: map[uint64]entry{}, next: 1}
	for _, d := range names {
		var n int
		if _, err := fmt.Sscanf(d.Name(), "%d.seg", &n); err != nil || segName(n) != d.Name() {
			continue
		}
		f, ferr := os.OpenFile(filepath.Join(dir, d.Name()), os.O_RDWR|os.O_APPEND, 0)
		if err = ferr; err != nil {
			break
		}
		s.segs, s.next = append(s.segs, f), n+1
	}
	// Claim the newest segment no live handle holds; -1 if there is none.
	for s.w = len(s.segs) - 1; s.w >= 0 && lock(s.segs[s.w]) != nil; s.w-- {
	}
	for i := 0; err == nil && i < len(s.segs); i++ {
		var end int64
		if end, err = s.replay(uint32(i), s.segs[i]); err == nil && i == s.w {
			s.end, err = end, s.segs[i].Truncate(end) // locked: nobody is mid-append
		}
	}
	if err != nil {
		for _, f := range s.segs {
			f.Close()
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// segName names segment n; lock claims one for this handle alone; crc is
// CRC-32C, its table built on first use, not at init (daemon start-up).
func segName(n int) string  { return fmt.Sprintf("%010d.seg", n) }
func lock(f *os.File) error { return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) }
func crc(b []byte) uint32   { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// replay indexes f's records and returns the offset past the last whole
// frame. A frame whose lengths pass the end of the file is a torn tail, not
// an allocation; a CRC mismatch skips that one record as corrupt.
func (s *Store) replay(seg uint32, f *os.File) (int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	buf, off := make([]byte, headerLen), int64(0)
	for ; err == nil && size-off >= headerLen; off += int64(len(buf)) {
		if _, err = f.ReadAt(buf[:headerLen], off); err != nil {
			break
		}
		kl := headerLen + int64(binary.LittleEndian.Uint32(buf))
		n := kl + int64(binary.LittleEndian.Uint32(buf[4:]))
		if n > size-off || n > math.MaxUint32 {
			break
		}
		if int64(cap(buf)) < n {
			buf = append(make([]byte, 0, n), buf[:headerLen]...)
		}
		buf = buf[:n]
		if _, err = f.ReadAt(buf[headerLen:], off+headerLen); err == nil && intact(buf) {
			s.index[hash(string(buf[headerLen:kl]))] = entry{off, seg, uint32(n)}
		} else if err == nil {
			s.corrupt.Add(1)
		}
	}
	return off, err
}

// intact reports whether rec is exactly one frame whose CRC matches.
func intact(rec []byte) bool {
	kl, pl := binary.LittleEndian.Uint32(rec), binary.LittleEndian.Uint32(rec[4:])
	return headerLen+int64(kl)+int64(pl) == int64(len(rec)) &&
		crc(rec[headerLen:]) == binary.LittleEndian.Uint32(rec[8:])
}

// hash is a key's index slot: the leading 8 bytes of its SHA-256.
func hash(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// GetPlan implements compile.PlanStore: one ReadAt, then the CRC, the stored
// key (another key's record under the same hash is a miss) and VerifyPlan;
// a failed check quarantines the record.
func (s *Store) GetPlan(key string) ([]byte, compile.Totals, bool) {
	h := hash(key)
	s.mu.Lock()
	e, ok := s.index[h]
	segs := s.segs
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, compile.Totals{}, false
	}
	rec := make([]byte, e.n)
	if _, err := segs[e.seg].ReadAt(rec, e.off); err == nil && intact(rec) {
		kl := headerLen + int(binary.LittleEndian.Uint32(rec))
		if string(rec[headerLen:kl]) != key {
			s.misses.Add(1)
			return nil, compile.Totals{}, false
		}
		if totals, err := compile.VerifyPlan(key, rec[kl:]); err == nil {
			s.hits.Add(1)
			return rec[kl:], totals, true
		}
	}
	s.corrupt.Add(1)
	s.mu.Lock()
	if s.index[h] == e { // not yet replaced by a newer record
		delete(s.index, h)
	}
	s.mu.Unlock()
	return nil, compile.Totals{}, false
}

// PutPlan implements compile.PlanStore: unless key is indexed (same key, same
// content) it appends one record with one write; a failed write is truncated.
func (s *Store) PutPlan(key string, data []byte) {
	h := hash(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[h]; ok || headerLen+int64(len(key))+int64(len(data)) > math.MaxUint32 {
		return
	}
	for s.w < 0 { // every segment was held at Open: start one
		f, err := os.OpenFile(filepath.Join(s.dir, segName(s.next)), os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		s.next++
		if os.IsExist(err) {
			continue // another handle took the name
		} else if err != nil {
			return
		} else if err := lock(f); err != nil {
			f.Close() // a racing Open claimed it: this append is skipped
			return
		}
		s.w, s.end, s.segs = len(s.segs), 0, append(s.segs, f)
	}
	rec := binary.LittleEndian.AppendUint32(s.buf[:0], uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(data)))
	rec = append(append(append(rec, 0, 0, 0, 0), key...), data...)
	binary.LittleEndian.PutUint32(rec[8:], crc(rec[headerLen:]))
	s.buf = rec
	if _, err := s.segs[s.w].Write(rec); err != nil {
		if s.segs[s.w].Truncate(s.end) != nil {
			s.w = -1 // never append after a partial frame: start a new segment
		}
		return
	}
	s.index[h] = entry{s.end, uint32(s.w), uint32(len(rec))}
	s.end += int64(len(rec))
	s.writes.Add(1)
}

// Flush is a no-op: PutPlan writes synchronously, so nothing is pending.
func (s *Store) Flush() {}

// StoreStats implements compile.PlanStore.
func (s *Store) StoreStats() compile.StoreStats {
	return compile.StoreStats{Hits: s.hits.Load(), Misses: s.misses.Load(), Writes: s.writes.Load(), Corrupt: s.corrupt.Load()}
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
