// The on-disk set-family store: a crash-safe spill of the memo cache
// that lets a restarted process warm up instantly on an unchanged
// network. The content-fingerprint keys (Key) are position-independent
// — they hash model semantics, not pointers — so a family written by
// one process is valid input for any later one, as long as the bytes
// can be proven untouched. Everything here is built around that proof:
//
//   - every family lives in its own file named by the sha256 of its
//     cache key, written via temp file + fsync + atomic rename so a
//     crash leaves either the old content or the new, never a tear;
//   - each file carries a header (format magic + version, the full
//     cache key, a sha256 over the remainder) and a reload revalidates
//     all three before trusting a byte: wrong version (stale), wrong
//     key (alien), wrong checksum or malformed payload (corrupt) are
//     skipped AND deleted, never fatal;
//   - the store is strictly fallible: any IO error on the query path
//     degrades to a fresh enumeration and a DiskErrors increment —
//     Load and the write-behind never surface an error to a query;
//   - writes happen behind the query path on a dedicated goroutine
//     (enqueue is non-blocking; a full queue drops the write and
//     counts it), and an LRU-style byte budget prunes the oldest
//     files, so the directory never grows without bound.
//
// Recency: in memory the store keeps a true LRU list. On disk,
// ordering persists via file mtimes — writes get their natural
// filesystem timestamp, and a load bumps the hit file just past the
// newest known mtime (derived from observed stamps, not the Go clock,
// which DESIGN.md Sec. 8 invariant 8 keeps out of result-producing
// packages). After a restart the scan rebuilds the LRU order from
// those mtimes.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"abw/internal/conflict"
	"abw/internal/indepset"
	"abw/internal/radio"
	"abw/internal/topology"
)

// DefaultStoreMaxBytes is the on-disk budget used when OpenStore is
// given a non-positive size: 256 MiB, a few times the in-memory
// default so evicted families usually remain reloadable.
const DefaultStoreMaxBytes = 256 << 20

// storeMagic identifies a store file and pins the format version; a
// version bump changes the last byte, making every older file stale.
// Version 2 added the exploration count (the delta path's accounting
// seed) to the payload; version 3 orders the family by
// conflict.CompareCouples instead of by Set.Key strings. Older files
// are deleted as stale on load.
const storeMagic = "ABWFAM\x00\x03"

// storeExt is the extension of family files; anything in the cache
// directory not shaped like <64 hex>.fam is ignored entirely (the
// store never deletes files it did not name).
const storeExt = ".fam"

// storeHeaderLen is magic + payload checksum + key length.
const storeHeaderLen = len(storeMagic) + sha256.Size + 4

// writeQueueDepth bounds the write-behind queue; stores beyond it are
// dropped (and counted as disk errors) rather than blocking a query.
const writeQueueDepth = 128

// Store is the on-disk spill. Create with OpenStore and attach to one
// Cache with Cache.SetStore; a nil *Store is valid everywhere and does
// nothing. Every method is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu       sync.Mutex
	files    map[string]*storeFile //guards: mu — filename -> metadata
	order    []*storeFile          //guards: mu — LRU: oldest first, newest last
	bytes    int64                 //guards: mu — total file bytes
	maxMtime time.Time             //guards: mu — newest stamp observed; recency bumps go just past it

	qmu    sync.Mutex
	closed bool //guards: qmu
	queue  chan storeReq
	idle   chan struct{} // closed when the writer goroutine exits

	// Counters, sync/atomic like the Cache's (abw/atomicfield).
	hits   int64
	misses int64
	errors int64
	prunes int64
}

type storeFile struct {
	name  string
	size  int64
	mtime time.Time
}

// storeReq is one write-behind item; a nil sets slice with a non-nil
// flush channel is a barrier the writer closes when reached.
type storeReq struct {
	key      string
	sets     []indepset.Set
	explored int64
	flush    chan struct{}
}

// OpenStore opens (creating if necessary) the cache directory and
// indexes the family files already present, pruning immediately if
// they exceed maxBytes (<= 0 picks DefaultStoreMaxBytes). Files that
// are not store files are left untouched. The returned store owns a
// background writer goroutine; Close releases it.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("memo: empty cache directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultStoreMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: opening cache directory: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		files:    make(map[string]*storeFile),
		queue:    make(chan storeReq, writeQueueDepth),
		idle:     make(chan struct{}),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	go s.writer()
	return s, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// scan indexes existing family files, restoring LRU order from mtimes
// (ties broken by name so the order is deterministic), and enforces
// the byte budget on what it finds.
func (s *Store) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("memo: scanning cache directory: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if e.IsDir() || !isStoreName(e.Name()) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			// Raced with a concurrent deletion; skip.
			continue
		}
		f := &storeFile{name: e.Name(), size: info.Size(), mtime: info.ModTime()}
		s.files[f.name] = f
		s.order = append(s.order, f)
		s.bytes += f.size
		if f.mtime.After(s.maxMtime) {
			s.maxMtime = f.mtime
		}
	}
	// Sort through a local so the closure (which the lockguard dataflow
	// treats as escaping mu's critical section) never touches the
	// guarded field; it shares s.order's backing array.
	order := s.order
	sort.Slice(order, func(i, j int) bool {
		if !order[i].mtime.Equal(order[j].mtime) {
			return order[i].mtime.Before(order[j].mtime)
		}
		return order[i].name < order[j].name
	})
	s.pruneLocked()
	return nil
}

// isStoreName reports whether name is shaped like a family file:
// 64 hex digits + the extension.
func isStoreName(name string) bool {
	if len(name) != 2*sha256.Size+len(storeExt) || name[2*sha256.Size:] != storeExt {
		return false
	}
	for i := 0; i < 2*sha256.Size; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// fileName derives the family file name for a cache key.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + storeExt
}

// load reads, revalidates and decodes the family stored for key, along
// with its exact exploration count. A missing file is a disk miss; any
// other failure (unreadable, stale version, alien key, checksum
// mismatch, malformed payload) counts a disk error and deletes the
// offending file. Nil-safe: a nil store reports a plain miss without
// counting. load never returns an error — the caller's fallback is
// always a fresh enumeration.
func (s *Store) load(key string) ([]indepset.Set, int64, bool) {
	if s == nil {
		return nil, 0, false
	}
	name := fileName(key)
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		if os.IsNotExist(err) {
			atomic.AddInt64(&s.misses, 1)
		} else {
			atomic.AddInt64(&s.errors, 1)
		}
		return nil, 0, false
	}
	sets, explored, err := decodeFamily(key, data)
	if err != nil {
		atomic.AddInt64(&s.errors, 1)
		s.remove(name)
		return nil, 0, false
	}
	atomic.AddInt64(&s.hits, 1)
	s.touch(name, int64(len(data)))
	return sets, explored, true
}

// touch moves a loaded file to the most-recent end of the LRU order
// and best-effort persists that recency as an mtime bump just past the
// newest stamp the store has seen (no wall-clock read).
func (s *Store) touch(name string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	if f == nil {
		// Written by another process since the scan; adopt it.
		f = &storeFile{name: name, size: size}
		s.files[name] = f
		s.order = append(s.order, f)
		s.bytes += size
	}
	s.maxMtime = s.maxMtime.Add(time.Millisecond)
	f.mtime = s.maxMtime
	// Best effort: recency survives a restart when it sticks, the
	// in-memory order is authoritative meanwhile.
	_ = os.Chtimes(filepath.Join(s.dir, name), s.maxMtime, s.maxMtime)
	s.moveToBackLocked(f)
	s.pruneLocked()
}

func (s *Store) moveToBackLocked(f *storeFile) {
	for i, o := range s.order {
		if o == f {
			s.order = append(append(s.order[:i:i], s.order[i+1:]...), f)
			return
		}
	}
	s.order = append(s.order, f)
}

// remove deletes a file and drops it from the index.
func (s *Store) remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(name)
}

func (s *Store) removeLocked(name string) {
	_ = os.Remove(filepath.Join(s.dir, name))
	f := s.files[name]
	if f == nil {
		return
	}
	delete(s.files, name)
	s.bytes -= f.size
	for i, o := range s.order {
		if o == f {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// pruneLocked deletes oldest files until the byte budget holds. Like
// the in-memory cache, a file larger than the whole budget is written
// and immediately pruned rather than rejected up front.
func (s *Store) pruneLocked() {
	for s.bytes > s.maxBytes && len(s.order) > 0 {
		victim := s.order[0]
		s.removeLocked(victim.name)
		atomic.AddInt64(&s.prunes, 1)
	}
}

// enqueue hands a family to the write-behind goroutine. It never
// blocks: with the queue full (or the store closed) the write is
// dropped and counted as a disk error. Nil-safe.
func (s *Store) enqueue(key string, sets []indepset.Set, explored int64) {
	if s == nil {
		return
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		atomic.AddInt64(&s.errors, 1)
		return
	}
	select {
	case s.queue <- storeReq{key: key, sets: sets, explored: explored}:
	default:
		atomic.AddInt64(&s.errors, 1)
	}
}

// writer drains the write-behind queue until Close.
func (s *Store) writer() {
	defer close(s.idle)
	for req := range s.queue {
		if req.flush != nil {
			close(req.flush)
			continue
		}
		s.put(req.key, req.sets, req.explored)
	}
}

// put writes one family crash-safely: encode, temp file, fsync,
// atomic rename, directory fsync, then index + prune. Failures are
// counted, the temp file is removed, and nothing is surfaced.
func (s *Store) put(key string, sets []indepset.Set, explored int64) {
	name := fileName(key)
	data := encodeFamily(key, sets, explored)
	if err := s.writeAtomic(name, data); err != nil {
		atomic.AddInt64(&s.errors, 1)
		return
	}
	info, err := os.Stat(filepath.Join(s.dir, name))
	if err != nil {
		atomic.AddInt64(&s.errors, 1)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Keep on-disk stamps strictly increasing in write order: rapid
	// successive writes can land inside one filesystem-timestamp tick,
	// which would make the scan's restored LRU order ambiguous. The
	// bump is derived from observed stamps, never from the Go clock.
	mtime := info.ModTime()
	if !mtime.After(s.maxMtime) {
		mtime = s.maxMtime.Add(time.Millisecond)
		_ = os.Chtimes(filepath.Join(s.dir, name), mtime, mtime)
	}
	s.maxMtime = mtime
	if old := s.files[name]; old != nil {
		// Overwrite: the rename replaced the old bytes.
		s.bytes -= old.size
		old.size = info.Size()
		old.mtime = mtime
		s.bytes += old.size
		s.moveToBackLocked(old)
	} else {
		f := &storeFile{name: name, size: info.Size(), mtime: mtime}
		s.files[name] = f
		s.order = append(s.order, f)
		s.bytes += f.size
	}
	s.pruneLocked()
}

func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Make the rename itself durable. Not every platform lets a
	// directory be fsynced; degrade silently where it cannot.
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Flush blocks until every write enqueued before the call has been
// written (or dropped). Nil-safe; a closed store returns immediately.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.qmu.Lock()
	if s.closed {
		s.qmu.Unlock()
		return
	}
	barrier := make(chan struct{})
	s.queue <- storeReq{flush: barrier}
	s.qmu.Unlock()
	<-barrier
}

// Close drains pending writes and stops the writer goroutine. The
// store drops (and counts) writes enqueued after Close; loads keep
// working. Nil-safe and idempotent.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	<-s.idle
	return nil
}

// statsLocked-free snapshot of the store-side counters and shape.
func (s *Store) statsSnapshot() (hits, misses, errors, bytes int64) {
	if s == nil {
		return 0, 0, 0, 0
	}
	hits = atomic.LoadInt64(&s.hits)
	misses = atomic.LoadInt64(&s.misses)
	errors = atomic.LoadInt64(&s.errors)
	s.mu.Lock()
	bytes = s.bytes
	s.mu.Unlock()
	return hits, misses, errors, bytes
}

// --- Family encoding -------------------------------------------------
//
// Layout (all integers little-endian):
//
//	magic+version  8 bytes   "ABWFAM\x00" + format version
//	checksum      32 bytes   sha256 over every byte after this field
//	keyLen         4 bytes   uint32
//	key            keyLen    the full cache key (revalidated on load)
//	explored       8 bytes   int64: exact exploration count of the walk
//	nsets          4 bytes   uint32
//	per set:
//	  ncouples     4 bytes   uint32
//	  per couple: 16 bytes   link as uint64, rate as IEEE-754 bits
//
// Rates round-trip exactly (bit patterns, not decimal), so a reloaded
// family is byte-identical to the enumeration that produced it, and the
// exploration count makes a reloaded family a valid delta base
// (indepset.DeltaBase) exactly like a freshly enumerated one.

// encodeFamily serializes a family under its cache key.
func encodeFamily(key string, sets []indepset.Set, explored int64) []byte {
	n := storeHeaderLen + len(key) + 8 + 4
	for i := range sets {
		n += 4 + 16*len(sets[i].Couples)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, storeMagic...)
	buf = append(buf, make([]byte, sha256.Size)...) // checksum placeholder
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(explored))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sets)))
	for i := range sets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sets[i].Couples)))
		for _, cp := range sets[i].Couples {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(cp.Link)))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(cp.Rate)))
		}
	}
	sum := sha256.Sum256(buf[len(storeMagic)+sha256.Size:])
	copy(buf[len(storeMagic):], sum[:])
	return buf
}

// decodeFamily revalidates and decodes a stored family for the given
// key. Any deviation — wrong version, wrong key, checksum mismatch,
// malformed or unsorted payload — is an error; the caller treats every
// error identically (delete the file, count it, enumerate fresh).
func decodeFamily(key string, data []byte) ([]indepset.Set, int64, error) {
	if len(data) < storeHeaderLen {
		return nil, 0, fmt.Errorf("memo: store file truncated (%d bytes)", len(data))
	}
	if string(data[:len(storeMagic)]) != storeMagic {
		return nil, 0, fmt.Errorf("memo: store file has wrong magic/version")
	}
	body := data[len(storeMagic)+sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(data[len(storeMagic):len(storeMagic)+sha256.Size]) {
		return nil, 0, fmt.Errorf("memo: store file checksum mismatch")
	}
	keyLen := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(keyLen) > uint64(len(body)) {
		return nil, 0, fmt.Errorf("memo: store file key overruns payload")
	}
	if string(body[:keyLen]) != key {
		return nil, 0, fmt.Errorf("memo: store file keyed for a different family")
	}
	body = body[keyLen:]
	if len(body) < 12 {
		return nil, 0, fmt.Errorf("memo: store file missing exploration count")
	}
	explored := int64(binary.LittleEndian.Uint64(body))
	body = body[8:]
	nsets := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(nsets) > uint64(len(body))/4 {
		return nil, 0, fmt.Errorf("memo: store file set count %d overruns payload", nsets)
	}
	if explored < int64(nsets) {
		// Every returned set was one charged exploration, so a count
		// below the family size cannot be genuine.
		return nil, 0, fmt.Errorf("memo: store file exploration count %d below set count %d", explored, nsets)
	}
	sets := make([]indepset.Set, 0, nsets)
	for i := uint32(0); i < nsets; i++ {
		if len(body) < 4 {
			return nil, 0, fmt.Errorf("memo: store file set %d missing couple count", i)
		}
		ncouples := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(ncouples) > uint64(len(body))/16 {
			return nil, 0, fmt.Errorf("memo: store file couple count %d overruns payload", ncouples)
		}
		couples := make([]conflict.Couple, 0, ncouples)
		prevLink := int64(-1)
		for j := uint32(0); j < ncouples; j++ {
			link := int64(binary.LittleEndian.Uint64(body))
			rate := math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
			body = body[16:]
			if link < 0 || link <= prevLink {
				return nil, 0, fmt.Errorf("memo: store file couples not strictly link-sorted")
			}
			if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
				return nil, 0, fmt.Errorf("memo: store file rate out of range")
			}
			prevLink = link
			couples = append(couples, conflict.Couple{Link: topology.LinkID(link), Rate: radio.Rate(rate)})
		}
		sets = append(sets, indepset.Set{Couples: couples})
	}
	if len(body) != 0 {
		return nil, 0, fmt.Errorf("memo: store file has %d trailing bytes", len(body))
	}
	// Enumeration ships families in strict family order; so must a
	// reload.
	for i := 1; i < len(sets); i++ {
		if conflict.CompareCouples(sets[i].Couples, sets[i-1].Couples) <= 0 {
			return nil, 0, fmt.Errorf("memo: store file family not sorted")
		}
	}
	return sets, explored, nil
}
