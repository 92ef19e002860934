package store

import (
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manual clock for breaker-recovery tests; sleep advances it
// so retry backoff costs no wall time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) { c.advance(d) }

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testKey(b byte) ResultKey {
	var k ResultKey
	k[0] = b
	return k
}

func openTest(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestMemoryRoundTrip(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 2})
	k := testKey(1)
	e := &Entry{Body: []byte(`{"tier":"full"}`)}
	s.PutResult(k, e)
	got, src := s.GetResult(k)
	if src != "memory" || string(got.Body) != string(e.Body) {
		t.Fatalf("got src=%q body=%q", src, got.Body)
	}
	// Eviction: two more keys push the first out.
	s.PutResult(testKey(2), e)
	s.PutResult(testKey(3), e)
	if _, src := s.GetResult(k); src != "" {
		t.Fatalf("expected eviction miss, got %q", src)
	}
	st := s.Stats()
	if st.HitsMemory != 1 || st.Misses != 1 || st.MemoryEntries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMemoryCorruptionDropped(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 4})
	k := testKey(1)
	e := &Entry{Body: []byte("cached body")}
	s.PutResult(k, e)
	// The caller's pointer aliases the cached entry: mutating it models
	// in-process memory corruption, which the checksum must catch.
	e.Body[0] ^= 0xFF
	if _, src := s.GetResult(k); src != "" {
		t.Fatalf("corrupt entry served from %q", src)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
}

func TestDiskRoundTripAcrossStores(t *testing.T) {
	dir := t.TempDir()
	k := testKey(7)
	e := &Entry{Body: []byte(`{"tier":"full","dump":"x"}`)}
	s1 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	s1.PutResult(k, e)

	// A second store over the same directory models a process restart.
	s2 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	got, src := s2.GetResult(k)
	if src != "disk" || string(got.Body) != string(e.Body) {
		t.Fatalf("got src=%q body=%q", src, got)
	}
	// The disk hit populated memory.
	if _, src := s2.GetResult(k); src != "memory" {
		t.Fatalf("second get src=%q, want memory", src)
	}
}

func TestSourceMap(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 2})
	l1, l2 := KeyForSource("func main() {}", Fingerprint{}), testKey(9)
	if _, ok := s.SourceKey(l1); ok {
		t.Fatal("unexpected L1 hit")
	}
	s.MapSource(l1, l2)
	got, ok := s.SourceKey(l1)
	if !ok || got != l2 {
		t.Fatalf("L1 lookup = %v %v", got, ok)
	}
}

func TestVerifyOnReadQuarantinesBitFlips(t *testing.T) {
	dir := t.TempDir()
	k := testKey(3)
	s1 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	s1.PutResult(k, &Entry{Body: []byte("precious result")})

	name := filepath.Join(dir, resultName(k))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	if _, src := s2.GetResult(k); src != "" {
		t.Fatalf("corrupt entry served from %q", src)
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The entry was renamed aside, not deleted, and is never retried.
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry still in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, resultName(k))); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if _, src := s2.GetResult(k); src != "" {
		t.Fatal("quarantined entry came back")
	}
	// I/O was healthy throughout: corruption must not trip the breaker.
	if st.State != "ok" || st.IOErrors != 0 {
		t.Fatalf("breaker reacted to corruption: %+v", st)
	}
}

func TestVerifyOnReadRejectsBadProgram(t *testing.T) {
	// A valid checksum over an entry whose embedded program does not decode:
	// header verification passes, IR verification must still refuse it.
	dir := t.TempDir()
	k := testKey(4)
	s1 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	s1.PutResult(k, &Entry{Body: []byte("body"), Prog: []byte("not an encoded program")})

	s2 := openTest(t, Config{CacheEntries: 4, Dir: dir})
	if _, src := s2.GetResult(k); src != "" {
		t.Fatalf("entry with invalid program served from %q", src)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestOrphanTempSweep(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "res-deadbeef.json.tmp123")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, Config{Dir: dir})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp not swept: %v", err)
	}
}

func TestKilledWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{}
	fs.set(func(f *faultFS) { f.killRename = true })
	s := openTest(t, Config{CacheEntries: 4, Dir: dir, FS: fs})
	k := testKey(5)
	s.PutResult(k, &Entry{Body: []byte("never lands")})

	// The entry is served from memory in this process...
	if _, src := s.GetResult(k); src != "memory" {
		t.Fatal("memory layer should still serve")
	}
	// ...but a restart finds no entry and no readable garbage — only a temp
	// file, which the open sweep removes.
	fs.set(func(f *faultFS) { f.killRename = false })
	s2 := openTest(t, Config{CacheEntries: 4, Dir: dir, FS: fs})
	if _, src := s2.GetResult(k); src != "" {
		t.Fatalf("torn write served from %q", src)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), tmpSuffix) {
			t.Fatalf("orphan temp survived sweep: %s", e.Name())
		}
	}
}

func TestSingleFlightCoalesces(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 4})
	k := testKey(6)
	f1, leader := s.BeginFlight(k)
	if !leader {
		t.Fatal("first caller should lead")
	}
	f2, leader2 := s.BeginFlight(k)
	if leader2 {
		t.Fatal("second caller must wait")
	}
	e := &Entry{Body: []byte("shared")}
	done := make(chan *Entry, 1)
	go func() { done <- s.WaitFlight(context.Background(), f2) }()
	s.FinishFlight(k, f1, e)
	if got := <-done; got == nil || string(got.Body) != "shared" {
		t.Fatalf("waiter got %v", got)
	}
	if st := s.Stats(); st.Coalesced != 1 {
		t.Fatalf("coalesced = %d", st.Coalesced)
	}
	// The flight is gone; the next request leads again.
	if _, leader := s.BeginFlight(k); !leader {
		t.Fatal("flight not cleared")
	}
}

func TestSingleFlightNilPublishWakesWaitersEmpty(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 4})
	k := testKey(6)
	f1, _ := s.BeginFlight(k)
	f2, _ := s.BeginFlight(k)
	done := make(chan *Entry, 1)
	go func() { done <- s.WaitFlight(context.Background(), f2) }()
	s.FinishFlight(k, f1, nil) // degraded result: not shareable
	if got := <-done; got != nil {
		t.Fatalf("waiter got %v, want nil", got)
	}
	if st := s.Stats(); st.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0", st.Coalesced)
	}
}

func TestSingleFlightWaiterHonorsOwnDeadline(t *testing.T) {
	s := openTest(t, Config{CacheEntries: 4})
	k := testKey(6)
	_, _ = s.BeginFlight(k)
	f2, _ := s.BeginFlight(k)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := s.WaitFlight(ctx, f2); got != nil {
		t.Fatalf("expired waiter got %v", got)
	}
}

func TestBreakerTripsAndRecoversHalfOpen(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := Config{
		CacheEntries: 4, Dir: dir, FS: fs,
		Retries: 1, FailThreshold: 2,
		Cooldown: time.Second, CooldownCap: 8 * time.Second,
	}
	cfg.SetClock(clk.now, clk.sleep)
	s := openTest(t, cfg)
	k := testKey(8)
	s.PutResult(k, &Entry{Body: []byte("x")})
	s.lru = newLRU(4) // drop the memory copy so gets go to disk

	fs.set(func(f *faultFS) { f.failReads = true })
	for i := 0; i < 2; i++ {
		s.GetResult(k)
	}
	st := s.Stats()
	if st.State != "degraded" || st.DegradedTransitions != 1 || st.IOErrors != 2 {
		t.Fatalf("after failures: %+v", st)
	}
	// Degraded pins to compute-only: disk is not even attempted.
	before := func() int { fs.mu.Lock(); defer fs.mu.Unlock(); return fs.reads }()
	s.GetResult(k)
	if after := func() int { fs.mu.Lock(); defer fs.mu.Unlock(); return fs.reads }(); after != before {
		t.Fatal("degraded store touched the disk")
	}

	// After the cooldown the breaker goes half-open; a healthy trial closes
	// it and the store serves from disk again.
	fs.set(func(f *faultFS) { f.failReads = false })
	clk.advance(2 * time.Second)
	if got, src := s.GetResult(k); src != "disk" || string(got.Body) != "x" {
		t.Fatalf("post-recovery get: src=%q", src)
	}
	if st := s.Stats(); st.State != "ok" {
		t.Fatalf("breaker did not close: %+v", st)
	}
}

func TestBreakerHalfOpenFailureDoublesCooldown(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := newHealth(1, time.Second, 8*time.Second, clk.now)
	h.failure(opRead) // trip
	if st, _ := h.snapshot(); st != "degraded" {
		t.Fatalf("state %s", st)
	}
	clk.advance(1100 * time.Millisecond)
	if !h.allow() {
		t.Fatal("half-open trial refused")
	}
	if h.allow() {
		t.Fatal("second concurrent trial admitted")
	}
	h.failure(opRead) // trial failed: cooldown doubles to 2s
	clk.advance(1100 * time.Millisecond)
	if h.allow() {
		t.Fatal("reopened before doubled cooldown")
	}
	clk.advance(time.Second)
	if !h.allow() {
		t.Fatal("trial refused after doubled cooldown")
	}
	h.success(opRead)
	if st, _ := h.snapshot(); st != "ok" {
		t.Fatalf("state %s after recovery", st)
	}
	if _, trips := h.snapshot(); trips != 2 {
		t.Fatalf("transitions = %d, want 2", trips)
	}
}

// TestBreakerRunsSurviveTheOtherKind drives the default retry and threshold
// settings through the server's per-request pattern (a disk read, then a
// write of the computed result). A read outage must trip the breaker even
// though every write succeeds, and a full disk must trip it even though
// every read succeeds.
func TestBreakerRunsSurviveTheOtherKind(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(*faultFS)
	}{
		{"read outage", func(f *faultFS) { f.failReads = true }},
		{"write outage", func(f *faultFS) { f.failWrites = true }},
	} {
		fs := &faultFS{}
		fs.set(tc.fault)
		cfg := Config{CacheEntries: 4, Dir: t.TempDir(), FS: fs}
		clk := &fakeClock{t: time.Unix(0, 0)}
		cfg.SetClock(clk.now, clk.sleep)
		s := openTest(t, cfg)
		for i := byte(0); i < 2; i++ {
			s.GetResult(testKey(i))
			s.PutResult(testKey(i), &Entry{Body: []byte("x")})
		}
		if st := s.Stats(); st.State != "degraded" || st.DegradedTransitions != 1 {
			t.Errorf("%s: breaker did not trip after two requests: %+v", tc.name, st)
		}
	}
}

func TestWriteFailureDoesNotPoisonStore(t *testing.T) {
	dir := t.TempDir()
	fs := &faultFS{}
	fs.set(func(f *faultFS) { f.failWrites = true })
	cfg := Config{CacheEntries: 4, Dir: dir, FS: fs, Retries: 1, FailThreshold: 100}
	clk := &fakeClock{t: time.Unix(0, 0)}
	cfg.SetClock(clk.now, clk.sleep)
	s := openTest(t, cfg)
	k := testKey(2)
	s.PutResult(k, &Entry{Body: []byte("survives in memory")})
	if _, src := s.GetResult(k); src != "memory" {
		t.Fatal("memory put should survive a disk write failure")
	}
	if st := s.Stats(); st.IOErrors == 0 {
		t.Fatal("write failure not counted")
	}
}

func TestKeyDerivations(t *testing.T) {
	fpA := NewFingerprint([]byte("opts-a"))
	fpB := NewFingerprint([]byte("opts-b"))
	var sum [sha256.Size]byte
	if KeyForSource("src", fpA) == KeyForSource("src", fpB) {
		t.Fatal("fingerprint ignored in L1 key")
	}
	if KeyForSource("src", fpA) != KeyForSource("src", fpA) {
		t.Fatal("L1 key not deterministic")
	}
	k1 := KeyForProgram([32]byte{1}, sum, fpA)
	k2 := KeyForProgram([32]byte{2}, sum, fpA)
	k3 := KeyForProgram([32]byte{1}, sum, fpB)
	if k1 == k2 || k1 == k3 {
		t.Fatal("L2 key collisions")
	}
}
