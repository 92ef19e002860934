package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"icbe/internal/progs"
)

// maxTestDeadline gives cache tests enough budget that every workload
// reaches the full tier — degraded results are uncacheable by design, so a
// flaky timeout would turn a cache assertion into noise.
const maxTestDeadline = 60 * time.Second

// postHdr sends one /optimize request and returns status, raw body, and the
// response headers (the cache disposition travels in X-Icbe-Cache).
func postHdr(t *testing.T, url string, req OptimizeRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw, resp.Header
}

// TestCacheEquivalence is the cache's contract test: for every benchmark
// workload and several worker counts, a cached response is byte-identical
// to a fresh compute — and since the deterministic body scrubbing also makes
// bodies worker-count independent, all worker counts agree on the bytes too.
func TestCacheEquivalence(t *testing.T) {
	dir := t.TempDir()
	cached, cts := newTestService(t, Config{
		Workers: runtime.NumCPU(), CacheEntries: 256, StoreDir: dir,
		DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})
	_, fts := newTestService(t, Config{
		Workers: runtime.NumCPU(), DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})

	// The server clamps requested workers to its ceiling (NumCPU here), and
	// the cache fingerprint uses the effective value — so two requested
	// counts that clamp to the same number share a cache entry. Dedupe by
	// effective value to keep the miss/hit expectations honest.
	effective := func(requested int) int {
		if requested > 0 && requested < runtime.NumCPU() {
			return requested
		}
		return runtime.NumCPU()
	}
	var workerCounts []int
	seen := map[int]bool{}
	for _, requested := range []int{1, 4, runtime.NumCPU()} {
		if eff := effective(requested); !seen[eff] {
			seen[eff] = true
			workerCounts = append(workerCounts, requested)
		}
	}
	for _, w := range progs.All() {
		var acrossWorkers [][]byte
		for _, workers := range workerCounts {
			req := OptimizeRequest{
				Program: w.Source,
				Input:   w.Train,
				Options: &RequestOptions{Workers: workers},
			}
			status, cold, hdr := postHdr(t, cts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s/w%d: status %d: %s", w.Name, workers, status, cold)
			}
			if got := hdr.Get("X-Icbe-Cache"); got != "miss" {
				t.Fatalf("%s/w%d: first request cache status %q, want miss", w.Name, workers, got)
			}
			var resp OptimizeResponse
			if err := json.Unmarshal(cold, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Tier != "full" {
				t.Fatalf("%s/w%d: tier %q — raise the deadline, cache tests need full tier", w.Name, workers, resp.Tier)
			}

			// Repeat: served from cache, byte-identical.
			status, warm, hdr := postHdr(t, cts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s/w%d: repeat status %d", w.Name, workers, status)
			}
			if got := hdr.Get("X-Icbe-Cache"); got != "hit-memory" {
				t.Fatalf("%s/w%d: repeat cache status %q, want hit-memory", w.Name, workers, got)
			}
			if !bytes.Equal(cold, warm) {
				t.Errorf("%s/w%d: cached response differs from the compute that produced it", w.Name, workers)
			}

			// The same request against a cache-less server: identical bytes.
			status, fresh, hdr := postHdr(t, fts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s/w%d: fresh status %d", w.Name, workers, status)
			}
			if got := hdr.Get("X-Icbe-Cache"); got != "bypass" {
				t.Fatalf("%s/w%d: cache-less server sent status %q", w.Name, workers, got)
			}
			if !bytes.Equal(cold, fresh) {
				t.Errorf("%s/w%d: cached body differs from a fresh compute", w.Name, workers)
			}
			acrossWorkers = append(acrossWorkers, cold)
		}
		for i := 1; i < len(acrossWorkers); i++ {
			if !bytes.Equal(acrossWorkers[0], acrossWorkers[i]) {
				t.Errorf("%s: body differs between workers=%d and workers=%d",
					w.Name, workerCounts[0], workerCounts[i])
			}
		}
	}

	snap := cached.Stats()
	if snap.Store == nil {
		t.Fatal("/stats missing store block")
	}
	if snap.Store.HitsMemory == 0 || snap.CacheServed == 0 {
		t.Fatalf("cache never hit: %+v", snap.Store)
	}
	if snap.Store.Quarantined != 0 {
		t.Fatalf("clean soak quarantined entries: %+v", snap.Store)
	}
}

// TestCacheNewShapeMisses checks the fingerprint half of the result key: a
// different request shape for an already cached program misses the cache,
// and the compute it falls through to produces the exact body a fresh server
// would.
func TestCacheNewShapeMisses(t *testing.T) {
	dir := t.TempDir()
	_, cts := newTestService(t, Config{
		CacheEntries: 64, StoreDir: dir,
		DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})
	_, fts := newTestService(t, Config{DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline})

	w := progs.ByName("lisp")
	// Populate: plain request.
	if status, body, _ := postHdr(t, cts.URL, OptimizeRequest{Program: w.Source}); status != http.StatusOK {
		t.Fatalf("populate: %d %s", status, body)
	}
	// Different shape (adds a run): result-cache miss.
	req := OptimizeRequest{Program: w.Source, Input: w.Train}
	status, got, hdr := postHdr(t, cts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("new shape: %d", status)
	}
	if got := hdr.Get("X-Icbe-Cache"); got != "miss" {
		t.Fatalf("new shape cache status %q, want miss (different fingerprint)", got)
	}
	status, fresh, _ := postHdr(t, fts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("fresh: %d", status)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("new-shape compute produced different bytes than a cache-less server")
	}
}

// TestStoreIgnoresSummaryEntries opens the service on a store directory
// written by a version that also persisted procedure summaries
// (sum-<closure>-<options>.json entries under an "icbestore1 summaries"
// header). Those files are neither read nor quarantined: results compute,
// persist and serve from disk exactly as in an empty directory, with bodies
// byte-identical to a cache-less server's.
func TestStoreIgnoresSummaryEntries(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"version":1,"options":"11","records":[]}`)
	sum := sha256.Sum256(payload)
	old := map[string][]byte{
		// A well-formed old summary entry.
		"sum-" + strings.Repeat("ab", sha256.Size) + "-11.json": append([]byte(fmt.Sprintf("icbestore1 summaries %x %d\n", sum, len(payload))), payload...),
		// A torn one: its checksum no longer matches.
		"sum-" + strings.Repeat("cd", sha256.Size) + "-10.json": append([]byte(fmt.Sprintf("icbestore1 summaries %x %d\n", sum, len(payload))), payload[:8]...),
	}
	for name, raw := range old {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, fts := newTestService(t, Config{DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline})

	// Two processes on the same directory: the first computes and persists,
	// the second (memory layer off) must serve from disk.
	for _, pass := range []struct{ name, cache string }{{"first", "miss"}, {"restart", "hit-disk"}} {
		s, ts := newTestService(t, Config{
			StoreDir:        dir,
			DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
		})
		for _, name := range []string{"stdio", "lisp"} {
			w := progs.ByName(name)
			req := OptimizeRequest{Program: w.Source, Input: w.Train}
			status, body, hdr := postHdr(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", pass.name, name, status, body)
			}
			if got := hdr.Get("X-Icbe-Cache"); got != pass.cache {
				t.Fatalf("%s %s: cache status %q, want %q", pass.name, name, got, pass.cache)
			}
			if _, fresh, _ := postHdr(t, fts.URL, req); !bytes.Equal(body, fresh) {
				t.Errorf("%s %s: body differs from a cache-less server", pass.name, name)
			}
		}
		st := s.Stats().Store
		if st == nil || !st.DiskEnabled {
			t.Fatalf("%s: store block %+v, want the disk layer enabled", pass.name, st)
		}
		if st.Quarantined != 0 || st.IOErrors != 0 || st.SummariesLoaded != 0 || st.SummariesSaved != 0 {
			t.Fatalf("%s: store counters %+v, want no quarantine, I/O error or summary traffic", pass.name, st)
		}
	}
	for name, raw := range old {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, raw) {
			t.Errorf("old summary entry %s was moved or rewritten (err %v)", name, err)
		}
	}
	if q, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(q) != 0 {
		t.Errorf("quarantine holds %d files (err %v), want none", len(q), err)
	}
}

// TestCacheConcurrentMixedKeys hammers one cached server with concurrent
// repeats of every workload under -race: all responses for a key must be
// byte-identical regardless of which layer served them.
func TestCacheConcurrentMixedKeys(t *testing.T) {
	dir := t.TempDir()
	_, cts := newTestService(t, Config{
		Workers: 2, MaxInFlight: 8, CacheEntries: 64, StoreDir: dir,
		DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})
	all := progs.All()
	const repeats = 3
	bodies := make([][][]byte, len(all))
	var wg sync.WaitGroup
	for i, w := range all {
		bodies[i] = make([][]byte, repeats)
		for j := 0; j < repeats; j++ {
			wg.Add(1)
			go func(i, j int, src string) {
				defer wg.Done()
				// No t.Fatal from goroutines: transport errors surface as a
				// nil body, flagged after the join.
				reqBody, err := json.Marshal(OptimizeRequest{Program: src, NoDump: true})
				if err != nil {
					return
				}
				resp, err := http.Post(cts.URL+"/optimize", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					return
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err == nil && resp.StatusCode == http.StatusOK {
					bodies[i][j] = raw
				}
			}(i, j, w.Source)
		}
	}
	wg.Wait()
	for i, w := range all {
		var want []byte
		for _, b := range bodies[i] {
			if b == nil {
				continue // shed under load is acceptable; identical bytes are not optional
			}
			if want == nil {
				want = b
				continue
			}
			if !bytes.Equal(want, b) {
				t.Errorf("%s: concurrent responses disagree", w.Name)
			}
		}
		if want == nil {
			t.Errorf("%s: every request shed", w.Name)
		}
	}
}
