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
// to a fresh compute. The deterministic body scrubbing makes bodies
// worker-count independent, so the worker count is not part of the key:
// the first count computes and every later count is served the same bytes
// from memory.
func TestCacheEquivalence(t *testing.T) {
	dir := t.TempDir()
	cached, cts := newTestService(t, Config{
		Workers: runtime.NumCPU(), CacheEntries: 256, StoreDir: dir,
		DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})
	_, fts := newTestService(t, Config{
		Workers: runtime.NumCPU(), DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
	})

	workerCounts := []int{1, 4, runtime.NumCPU()}
	for _, w := range progs.All() {
		var cold []byte
		for i, workers := range workerCounts {
			req := OptimizeRequest{
				Program: w.Source,
				Input:   w.Train,
				Options: &RequestOptions{Workers: workers},
			}
			// The first worker count computes; every later one shares its
			// entry and is served the cold body from memory.
			status, body, hdr := postHdr(t, cts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("%s/w%d: status %d: %s", w.Name, workers, status, body)
			}
			want := "hit-memory"
			if i == 0 {
				want = "miss"
			}
			if got := hdr.Get("X-Icbe-Cache"); got != want {
				t.Fatalf("%s/w%d: cache status %q, want %s", w.Name, workers, got, want)
			}
			if i > 0 {
				if !bytes.Equal(body, cold) {
					t.Errorf("%s: body differs between workers=%d and workers=%d",
						w.Name, workerCounts[0], workers)
				}
			} else {
				cold = body
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

// TestCacheKeyCarriesBuild checks that the build is part of the result key:
// a server of another build over the same store directory misses and
// computes the same bytes itself, while a server of the writing build serves
// the stored entry. A body may change with the code, so a store must never
// hand one build's bytes to another.
func TestCacheKeyCarriesBuild(t *testing.T) {
	dir := t.TempDir()
	w := progs.ByName("stdio")
	req := OptimizeRequest{Program: w.Source, Input: w.Train}
	var first []byte
	for _, pass := range []struct{ build, cache string }{
		{"build-a", "miss"}, {"build-b", "miss"}, {"build-a", "hit-disk"},
	} {
		// Memory layer off: every pass reads the directory.
		_, ts := newTestService(t, Config{
			StoreDir: dir, build: pass.build,
			DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline,
		})
		status, body, hdr := postHdr(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", pass.build, status, body)
		}
		if got := hdr.Get("X-Icbe-Cache"); got != pass.cache {
			t.Fatalf("%s: cache status %q, want %q", pass.build, got, pass.cache)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Errorf("%s (%s): body differs from the first compute", pass.build, pass.cache)
		}
	}
}

// TestOneStoreLookupPerRequest repeats a request whose result the store
// never keeps (a deadline too short to start the full tier answers
// passthrough): every repeat misses again, and each one reads the store once.
func TestOneStoreLookupPerRequest(t *testing.T) {
	s, ts := newTestService(t, Config{CacheEntries: 8, StoreDir: t.TempDir()})
	req := OptimizeRequest{Program: okSrc, DeadlineMS: 1}
	for i := 1; i <= 3; i++ {
		status, body, hdr := postHdr(t, ts.URL, req)
		if status != http.StatusOK || hdr.Get("X-Icbe-Cache") != "bypass" {
			t.Fatalf("request %d: status %d cache %q: %s", i, status, hdr.Get("X-Icbe-Cache"), body)
		}
		if st := s.Stats().Store; st.Misses != int64(i) {
			t.Fatalf("after request %d: store misses = %d, want %d", i, st.Misses, i)
		}
	}
}

// TestStoreIgnoresSummaryEntries opens the service on a store directory
// written by older versions: sum-<closure>-<options>.json entries under an
// "icbestore1 summaries" header, from a version that also persisted
// procedure summaries, and a result entry filed under the canonical-hash key
// an older version gave stdio's request. Those files are neither read nor
// quarantined: results compute, persist and serve from disk exactly as in an
// empty directory, with bodies byte-identical to a cache-less server's.
func TestStoreIgnoresSummaryEntries(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"version":1,"options":"11","records":[]}`)
	sum := sha256.Sum256(payload)
	result, err := json.Marshal(map[string][]byte{"body": []byte(`{"tier":"full","stale":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	resultSum := sha256.Sum256(result)
	old := map[string][]byte{
		// A well-formed old summary entry.
		"sum-" + strings.Repeat("ab", sha256.Size) + "-11.json": append([]byte(fmt.Sprintf("icbestore1 summaries %x %d\n", sum, len(payload))), payload...),
		// A torn one: its checksum no longer matches.
		"sum-" + strings.Repeat("cd", sha256.Size) + "-10.json": append([]byte(fmt.Sprintf("icbestore1 summaries %x %d\n", sum, len(payload))), payload[:8]...),
		// A well-formed old result entry with a body no fresh compute gives.
		"res-9f0cf768939051b60c9191a24ec8511797352f25debfe8663708de7d8979ed4a.json": append([]byte(fmt.Sprintf("icbestore1 result %x %d\n", resultSum, len(result))), result...),
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
			t.Errorf("old entry %s was moved or rewritten (err %v)", name, err)
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
