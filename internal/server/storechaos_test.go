package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"icbe/internal/progs"
	"icbe/internal/store"
)

// chaosFS implements store.FS over the real filesystem with switchable
// failure modes, mirroring the store package's internal fault FS so the
// server-level chaos test can drive the same crash windows end to end.
type chaosFS struct {
	mu         sync.Mutex
	failReads  bool
	failWrites bool
	killRename bool
}

func (f *chaosFS) set(mut func(*chaosFS)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

func (f *chaosFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (f *chaosFS) CreateTemp(dir, pattern string) (store.File, error) {
	f.mu.Lock()
	fail := f.failWrites
	f.mu.Unlock()
	if fail {
		return nil, os.ErrPermission
	}
	return os.CreateTemp(dir, pattern)
}

func (f *chaosFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	kill := f.killRename
	f.mu.Unlock()
	if kill {
		// A crash between the temp write and the rename: the temp file
		// stays, the destination never appears.
		return nil
	}
	return os.Rename(oldpath, newpath)
}

func (f *chaosFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	fail := f.failReads
	f.mu.Unlock()
	if fail {
		return nil, os.ErrPermission
	}
	return os.ReadFile(name)
}

func (f *chaosFS) Remove(name string) error { return os.Remove(name) }

func (f *chaosFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func resultFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "res-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestServerStoreChaos is the end-to-end corruption storm: populate the
// durable store through the HTTP surface, bit-flip more than a quarter of
// the stored results, kill one write mid-rename, and assert that every
// subsequent response is byte-identical to a fresh compute, that the
// quarantine counters in /stats reconcile exactly with the damage, and that
// an I/O outage trips the store breaker to compute-only serving and recovers
// half-open.
func TestServerStoreChaos(t *testing.T) {
	dir := t.TempDir()
	ffs := &chaosFS{}
	clk := newFakeClock()
	storeCfg := store.Config{
		Dir:           dir, // memory layer off: every repeat must survive the disk
		FS:            ffs,
		FailThreshold: 3,
		Cooldown:      time.Second,
		CooldownCap:   8 * time.Second,
	}
	storeCfg.SetClock(clk.Now, func(time.Duration) {})
	s, ts := newTestService(t, Config{
		DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
		storeCfg: &storeCfg,
	})
	_, fts := newTestService(t, Config{DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline})

	all := progs.All()
	cold := make([][]byte, len(all))
	fresh := make([][]byte, len(all))
	req := func(i int) OptimizeRequest {
		return OptimizeRequest{Program: all[i].Source, Input: all[i].Train}
	}

	// Populate. The first workload's entry is kept intact so the recovery
	// phase below has a known-good file to probe; the last workload's write
	// is killed between temp file and rename (the crash window).
	if _, body, hdr := postHdr(t, ts.URL, req(0)); hdr.Get("X-Icbe-Cache") != "miss" {
		t.Fatalf("populate %s: cache status %q, want miss", all[0].Name, hdr.Get("X-Icbe-Cache"))
	} else {
		cold[0] = body
	}
	protected := resultFiles(t, dir)
	if len(protected) != 1 {
		t.Fatalf("after one populate: %d result files, want 1", len(protected))
	}
	for i := 1; i < len(all); i++ {
		if i == len(all)-1 {
			ffs.set(func(f *chaosFS) { f.killRename = true })
		}
		status, body, hdr := postHdr(t, ts.URL, req(i))
		if status != http.StatusOK || hdr.Get("X-Icbe-Cache") != "miss" {
			t.Fatalf("populate %s: status %d cache %q", all[i].Name, status, hdr.Get("X-Icbe-Cache"))
		}
		cold[i] = body
	}
	ffs.set(func(f *chaosFS) { f.killRename = false })

	files := resultFiles(t, dir)
	if want := len(all) - 1; len(files) != want {
		t.Fatalf("stored %d result files, want %d (one write was killed mid-rename)", len(files), want)
	}

	// Corruption storm: flip one bit in over a quarter of the surviving
	// entries, never touching the protected first file.
	damaged := 0
	wantDamaged := len(files)/3 + 1
	for _, name := range files {
		if name == protected[0] || damaged == wantDamaged {
			continue
		}
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged != wantDamaged {
		t.Fatalf("damaged %d entries, want %d", damaged, wantDamaged)
	}

	// Every workload again: damaged and killed entries must quarantine or
	// miss and recompute, intact entries must serve from disk — and every
	// single body must be byte-identical to both the original compute and a
	// cache-less server's answer.
	hits, misses := 0, 0
	for i := range all {
		status, body, hdr := postHdr(t, ts.URL, req(i))
		if status != http.StatusOK {
			t.Fatalf("storm %s: status %d", all[i].Name, status)
		}
		switch cache := hdr.Get("X-Icbe-Cache"); cache {
		case "hit-disk":
			hits++
		case "miss":
			misses++
		default:
			t.Fatalf("storm %s: cache status %q", all[i].Name, cache)
		}
		if !bytes.Equal(body, cold[i]) {
			t.Errorf("storm %s: response differs from the original compute", all[i].Name)
		}
		if status, fb, _ := postHdr(t, fts.URL, req(i)); status == http.StatusOK {
			fresh[i] = fb
			if !bytes.Equal(body, fb) {
				t.Errorf("storm %s: response differs from a fresh compute", all[i].Name)
			}
		} else {
			t.Fatalf("fresh %s: status %d", all[i].Name, status)
		}
	}
	// damaged bit-flipped entries recompute, plus the killed write's key.
	if wantMiss := damaged + 1; misses != wantMiss || hits != len(all)-wantMiss {
		t.Fatalf("storm served %d hits / %d misses, want %d / %d", hits, misses, len(all)-damaged-1, damaged+1)
	}

	// Counters reconcile exactly: one quarantine per bit-flipped file, the
	// quarantine directory holds exactly those files, and honest I/O failures
	// stayed at zero — corruption must not count against the breaker.
	snap := serverStats(t, ts.URL)
	if snap.Store == nil {
		t.Fatal("/stats missing store block")
	}
	if snap.Store.Quarantined != int64(damaged) {
		t.Fatalf("quarantined = %d, want exactly %d", snap.Store.Quarantined, damaged)
	}
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qents) != damaged {
		t.Fatalf("quarantine dir holds %d files, want %d", len(qents), damaged)
	}
	if snap.Store.IOErrors != 0 || snap.Store.State != "ok" {
		t.Fatalf("corruption moved the breaker: io_errors=%d state=%q", snap.Store.IOErrors, snap.Store.State)
	}

	// I/O outage: reads fail outright (EACCES-style, not corruption). Each
	// request reads its key once and every failed attempt counts, so the
	// first request's two attempts leave the breaker one short of its
	// threshold and the second request's first attempt trips it. The
	// service keeps answering with byte-identical computes throughout.
	ffs.set(func(f *chaosFS) { f.failReads = true })
	for i, want := range []struct {
		state    string
		ioErrors int64
	}{{"ok", 1}, {"degraded", 2}} {
		status, body, hdr := postHdr(t, ts.URL, req(0))
		if status != http.StatusOK || hdr.Get("X-Icbe-Cache") != "miss" {
			t.Fatalf("outage request %d: status %d cache %q, want 200 miss", i+1, status, hdr.Get("X-Icbe-Cache"))
		}
		if !bytes.Equal(body, cold[0]) {
			t.Errorf("outage request %d: response differs from the original compute", i+1)
		}
		snap = serverStats(t, ts.URL)
		if snap.Store.State != want.state || snap.Store.IOErrors != want.ioErrors {
			t.Fatalf("outage request %d: state=%q io_errors=%d, want %q and %d",
				i+1, snap.Store.State, snap.Store.IOErrors, want.state, want.ioErrors)
		}
	}
	if snap.Store.DegradedTransitions != 1 {
		t.Fatalf("outage tripped the breaker %d times, want 1", snap.Store.DegradedTransitions)
	}
	// While degraded the store is not consulted at all: compute-only, no new
	// I/O attempts, still byte-identical.
	errsBefore := snap.Store.IOErrors
	if status, body, hdr := postHdr(t, ts.URL, req(0)); status != http.StatusOK ||
		hdr.Get("X-Icbe-Cache") != "miss" || !bytes.Equal(body, cold[0]) {
		t.Fatalf("degraded serving broke: status %d cache %q", status, hdr.Get("X-Icbe-Cache"))
	}
	if snap = serverStats(t, ts.URL); snap.Store.IOErrors != errsBefore {
		t.Fatalf("degraded store still attempted I/O: %d -> %d errors", errsBefore, snap.Store.IOErrors)
	}

	// Heal the disk and pass the cooldown: the half-open probe succeeds and
	// the store returns to full service on its intact entry.
	ffs.set(func(f *chaosFS) { f.failReads = false })
	clk.Advance(2 * time.Second)
	status, body, hdr := postHdr(t, ts.URL, req(0))
	if status != http.StatusOK || hdr.Get("X-Icbe-Cache") != "hit-disk" {
		t.Fatalf("recovery: status %d cache %q, want 200 hit-disk", status, hdr.Get("X-Icbe-Cache"))
	}
	if !bytes.Equal(body, cold[0]) {
		t.Error("recovery: disk entry differs from the original compute")
	}
	snap = serverStats(t, ts.URL)
	if snap.Store.State != "ok" {
		t.Fatalf("breaker state after recovery = %q, want ok", snap.Store.State)
	}
	_ = s
}
