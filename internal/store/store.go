// Package store is the crash-safe content-addressed result store behind
// the optimization service: a bounded in-memory LRU of full optimization
// results in front of an optional on-disk store, addressed by a canonical
// content hash of the normalized ICFG rather than by source text (two
// layouts of the same program share one entry; see ir.HashProgram).
//
// Nothing read from the store is ever trusted: every entry carries a
// checksum, and a disk read additionally decodes the embedded optimized
// program and re-runs ir.Validate plus the check layer's invariant passes
// before the entry may be served (verify-on-read). An entry that fails any
// of it is quarantined — renamed aside, counted, never retried — and the
// request falls through to a fresh compute, so a corrupt store degrades
// capacity, never answers.
//
// Availability is protected on two more axes: concurrent requests for the
// same key coalesce onto a single computation (singleflight; waiters honor
// their own deadlines), and disk I/O failures first retry with capped
// backoff, then trip a store circuit breaker that pins the service to
// compute-only serving — a "store-degraded" dimension orthogonal to the
// response tier — with half-open recovery probes.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"icbe/internal/check"
	"icbe/internal/ir"
)

// encodeEntry/decodeEntry are the disk payload codec for result entries.
func encodeEntry(e *Entry) ([]byte, error) { return json.Marshal(e) }

func decodeEntry(payload []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// ResultKey addresses one cached optimization result: the canonical content
// hash of the input ICFG, the exact encoded input (so programs that are
// canonically equal but not byte-identical — e.g. different names — still
// produce byte-identical dumps from the cache), and the request fingerprint.
type ResultKey [sha256.Size]byte

// Hex renders the key for filenames and headers.
func (k ResultKey) Hex() string { return hex.EncodeToString(k[:]) }

// Fingerprint condenses everything about a request that shapes the response
// body besides the program itself (options, run inputs, dump suppression,
// effective worker count — but never the deadline, which shapes only how far
// a degraded attempt got, and degraded results are not cached).
type Fingerprint [sha256.Size]byte

// NewFingerprint hashes an opaque canonical encoding of the request shape.
func NewFingerprint(encoded []byte) Fingerprint { return sha256.Sum256(encoded) }

// KeyForProgram builds the L2 result key from the program's canonical hash,
// the sha of its exact encoding, and the request fingerprint.
func KeyForProgram(sum ir.Sum, encSHA [sha256.Size]byte, fp Fingerprint) ResultKey {
	h := sha256.New()
	h.Write([]byte("icbe-result-v1\x00"))
	h.Write(sum[:])
	h.Write(encSHA[:])
	h.Write(fp[:])
	var k ResultKey
	h.Sum(k[:0])
	return k
}

// KeyForSource builds the L1 key: source text + fingerprint. The L1 map
// lets a repeated request skip compilation and hashing entirely.
func KeyForSource(source string, fp Fingerprint) ResultKey {
	h := sha256.New()
	h.Write([]byte("icbe-source-v1\x00"))
	h.Write(fp[:])
	h.Write([]byte(source))
	var k ResultKey
	h.Sum(k[:0])
	return k
}

// Config tunes a Store. The zero value of every field has a usable default;
// a zero Dir disables the disk layer and a CacheEntries <= 0 disables the
// memory layer (the store still coalesces flights).
type Config struct {
	// CacheEntries bounds the in-memory result LRU.
	CacheEntries int
	// Dir roots the on-disk store ("" = memory only).
	Dir string
	// FS overrides the filesystem (nil = the real one); the seam for fault
	// injection in tests.
	FS FS
	// Retries is how many attempts a failing disk operation gets; every
	// failed attempt counts against the health breaker.
	Retries int
	// RetryBase/RetryCap shape the capped-doubling backoff between retries.
	RetryBase time.Duration
	RetryCap  time.Duration
	// FailThreshold consecutive failed attempts trip the breaker;
	// Cooldown/CooldownCap shape its doubling recovery timer.
	FailThreshold int
	Cooldown      time.Duration
	CooldownCap   time.Duration

	// now and sleep are test seams (nil = real clock / time.Sleep).
	now   func() time.Time
	sleep func(d time.Duration)
}

func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = osFS{}
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 2 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 50 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.CooldownCap <= 0 {
		c.CooldownCap = 30 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// SetClock installs test clock seams; call before use.
func (c *Config) SetClock(now func() time.Time, sleep func(d time.Duration)) {
	c.now, c.sleep = now, sleep
}

// Store is one result store instance. Safe for concurrent use.
type Store struct {
	cfg    Config
	disk   *disk // nil when the disk layer is disabled
	health *health

	mu      sync.Mutex
	lru     *lru
	l1      map[ResultKey]ResultKey // source-key -> program-key
	l1order []ResultKey             // FIFO eviction for the l1 map
	flights map[ResultKey]*Flight

	hitsMemory  int64
	hitsDisk    int64
	misses      int64
	quarantined int64
	coalesced   int64
	ioErrors    int64
}

// Open builds a Store. When the disk root cannot be initialized the store
// still opens — memory-only, with the error returned so the caller can log
// it; a broken disk degrades the store, it must not take the service down.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		lru:     newLRU(cfg.CacheEntries),
		l1:      make(map[ResultKey]ResultKey),
		flights: make(map[ResultKey]*Flight),
		health:  newHealth(cfg.FailThreshold, cfg.Cooldown, cfg.CooldownCap, cfg.now),
	}
	var err error
	if cfg.Dir != "" {
		s.disk, err = openDisk(cfg.FS, cfg.Dir)
		if err != nil {
			s.disk = nil
		}
	}
	return s, err
}

// SourceKey returns the cached L2 key for an L1 (source-level) key.
func (s *Store) SourceKey(l1 ResultKey) (ResultKey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.l1[l1]
	return k, ok
}

// MapSource records the L1 -> L2 association. The map is bounded to four
// entries per LRU slot (several sources can map to one program) with FIFO
// eviction; with the memory cache disabled it is bounded to a small constant.
func (s *Store) MapSource(l1, l2 ResultKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.l1[l1]; ok {
		s.l1[l1] = l2
		return
	}
	max := 4 * s.cfg.CacheEntries
	if max <= 0 {
		max = 64
	}
	s.l1[l1] = l2
	s.l1order = append(s.l1order, l1)
	for len(s.l1order) > max {
		delete(s.l1, s.l1order[0])
		s.l1order = s.l1order[1:]
	}
}

// GetResult looks a result up, memory first, then disk. source is "memory"
// or "disk" on a hit, "" on a miss. Every returned entry has been verified:
// checksum for memory hits; checksum, program decode, ir.Validate and the
// check layer's invariant passes for disk hits (which then populate the
// memory layer).
func (s *Store) GetResult(key ResultKey) (e *Entry, source string) {
	s.mu.Lock()
	ent, ok, corrupt := s.lru.get(key)
	if corrupt {
		s.quarantined++
	}
	if ok {
		s.hitsMemory++
		s.mu.Unlock()
		return ent, "memory"
	}
	s.mu.Unlock()

	if ent := s.readDiskResult(key); ent != nil {
		s.mu.Lock()
		s.hitsDisk++
		s.lru.put(key, ent)
		s.mu.Unlock()
		return ent, "disk"
	}
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
	return nil, ""
}

// PutResult stores a verified-good result in both layers.
func (s *Store) PutResult(key ResultKey, e *Entry) {
	s.mu.Lock()
	s.lru.put(key, e)
	s.mu.Unlock()
	if s.disk == nil {
		return
	}
	payload, err := encodeEntry(e)
	if err != nil {
		return
	}
	s.diskOp(opWrite, func() error { return s.disk.write(resultName(key), payload) })
}

// readDiskResult loads and fully verifies one result entry from disk.
func (s *Store) readDiskResult(key ResultKey) *Entry {
	if s.disk == nil {
		return nil
	}
	var payload []byte
	var ok bool
	var readErr error
	ioOK := s.diskOp(opRead, func() error {
		var err error
		payload, ok, err = s.disk.read(resultName(key))
		readErr = err
		return err
	})
	if !ioOK || !ok {
		if readErr == errCorrupt {
			// disk.read already quarantined the file.
			s.countQuarantined()
		}
		return nil
	}
	ent, err := decodeEntry(payload)
	if err == nil && len(ent.Prog) > 0 {
		err = verifyProgram(ent.Prog)
	}
	if err != nil {
		// The bytes checksummed clean but the content does not hold up
		// (version skew, an encoder bug, a deliberate tamper that rewrote
		// the checksum too): quarantine, same as a torn write.
		s.disk.quarantine(resultName(key))
		s.countQuarantined()
		return nil
	}
	return ent
}

// verifyProgram re-validates a cached optimized program before the entry
// may be served: decode, structural validation, and the cheap invariant
// subset of the static check layer.
func verifyProgram(enc []byte) error {
	p, err := ir.DecodeProgram(enc)
	if err != nil {
		return err
	}
	if err := ir.Validate(p); err != nil {
		return err
	}
	if rep := check.AnalyzeInvariants(p); rep.Invariants != 0 {
		return errCorrupt
	}
	return nil
}

// WaitFlight waits on another request's computation; a non-nil result is a
// successfully coalesced request (counted as such).
func (s *Store) WaitFlight(ctx context.Context, f *Flight) *Entry {
	e := f.Wait(ctx)
	if e == nil {
		return nil
	}
	s.mu.Lock()
	s.coalesced++
	s.mu.Unlock()
	return e
}

// diskOp runs one disk operation through the health breaker and the retry
// schedule. Every failed attempt counts against the breaker's run for its
// kind, and the retries stop as soon as it trips: a transient error still
// gets its retry (a success clears the run), while a disk that keeps
// failing trips the breaker within the first request or two that find it.
// Returns false when the operation was skipped (store degraded) or failed;
// corruption (errCorrupt) passes through as a successful I/O with a failed
// verification — the caller has already quarantined, and the breaker must
// not trip over bad bytes.
func (s *Store) diskOp(kind opKind, op func() error) bool {
	if !s.health.allow() {
		return false
	}
	delays := retryDelays(s.cfg.Retries, s.cfg.RetryBase, s.cfg.RetryCap)
	for i, d := range delays {
		if err := op(); err == nil || err == errCorrupt {
			s.health.success(kind)
			return err == nil
		}
		s.health.failure(kind)
		if i == len(delays)-1 {
			break
		}
		s.cfg.sleep(d)
		if !s.health.allow() {
			break
		}
	}
	s.mu.Lock()
	s.ioErrors++
	s.mu.Unlock()
	return false
}

// countQuarantined counts one quarantined disk entry.
func (s *Store) countQuarantined() {
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
}

func resultName(key ResultKey) string { return "res-" + key.Hex() + ".json" }

// Snapshot is the store's counter block for /stats and bench output.
type Snapshot struct {
	MemoryEntries       int    `json:"memory_entries"`
	HitsMemory          int64  `json:"hits_memory"`
	HitsDisk            int64  `json:"hits_disk"`
	Misses              int64  `json:"misses"`
	Quarantined         int64  `json:"quarantined"`
	Coalesced           int64  `json:"coalesced"`
	IOErrors            int64  `json:"io_errors"`
	State               string `json:"state"`
	DegradedTransitions int64  `json:"degraded_transitions"`
	// SummariesSaved and SummariesLoaded always read 0: the store no longer
	// persists procedure summaries. They remain on the wire because the
	// benchmark harness still reads them.
	SummariesSaved  int64 `json:"summaries_saved"`
	SummariesLoaded int64 `json:"summaries_loaded"`
	DiskEnabled     bool  `json:"disk_enabled"`
}

// Stats returns the current counters.
func (s *Store) Stats() Snapshot {
	state, trips := s.health.snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Snapshot{
		MemoryEntries:       s.lru.len(),
		HitsMemory:          s.hitsMemory,
		HitsDisk:            s.hitsDisk,
		Misses:              s.misses,
		Quarantined:         s.quarantined,
		Coalesced:           s.coalesced,
		IOErrors:            s.ioErrors,
		State:               state,
		DegradedTransitions: trips,
		DiskEnabled:         s.disk != nil,
	}
}
