package store_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/store"

	"icbe"
)

// TestChaosCorruptionStorm fills a store with real optimization results,
// flips bits in a third of the on-disk entries, truncates one, plants an
// orphan temp file, and then re-reads everything through a fresh store over
// the same directory. Every intact entry must come back byte-identical,
// every damaged entry must quarantine into a miss, and the quarantine
// counter must reconcile exactly with the number of damaged files read.
func TestChaosCorruptionStorm(t *testing.T) {
	dir := t.TempDir()
	s1, err := store.Open(store.Config{CacheEntries: 64, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}

	type seeded struct {
		key  store.ResultKey
		body []byte
	}
	var entries []seeded
	fp := store.NewFingerprint([]byte("chaos-options"))
	for _, w := range progs.All() {
		p, err := icbe.Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		opt, rep, err := p.Optimize(icbe.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		key := store.KeyForSource(w.Source, fp)
		body := []byte(fmt.Sprintf(`{"workload":%q,"optimized":%d,"dump_sha":%q}`,
			w.Name, rep.Optimized, opt.Dump()[:32]))
		s1.PutResult(key, &store.Entry{Body: body, Prog: ir.EncodeProgram(opt.Graph())})
		entries = append(entries, seeded{key, body})
	}
	if len(entries) < 4 {
		t.Fatalf("not enough workloads: %d", len(entries))
	}

	// Damage: flip bits in >=25% of entries, truncate one more, and leave a
	// torn temp file behind. rand is seeded for reproducibility.
	rng := rand.New(rand.NewSource(42))
	corrupt := len(entries)/3 + 1
	for i := 0; i < corrupt; i++ {
		name := filepath.Join(dir, "res-"+entries[i].key.Hex()+".json")
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncIdx := corrupt
	truncName := filepath.Join(dir, "res-"+entries[truncIdx].key.Hex()+".json")
	data, err := os.ReadFile(truncName)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncName, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "res-torn.json.tmp99"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := store.Open(store.Config{CacheEntries: 64, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	damaged := corrupt + 1
	for i, e := range entries {
		got, src := s2.GetResult(e.key)
		if i < damaged {
			if src != "" {
				t.Errorf("damaged entry %d served from %q", i, src)
			}
			continue
		}
		if src != "disk" {
			t.Errorf("intact entry %d: source %q", i, src)
			continue
		}
		if string(got.Body) != string(e.body) {
			t.Errorf("intact entry %d: body diverged", i)
		}
	}
	st := s2.Stats()
	if st.Quarantined != int64(damaged) {
		t.Errorf("quarantined = %d, want exactly %d", st.Quarantined, damaged)
	}
	if st.Misses != int64(damaged) {
		t.Errorf("misses = %d, want %d", st.Misses, damaged)
	}
	if st.HitsDisk != int64(len(entries)-damaged) {
		t.Errorf("disk hits = %d, want %d", st.HitsDisk, len(entries)-damaged)
	}
	// Corruption is not an I/O failure: the breaker stayed closed.
	if st.State != "ok" || st.IOErrors != 0 || st.DegradedTransitions != 0 {
		t.Errorf("breaker reacted to corruption: %+v", st)
	}
	// Quarantine holds exactly the damaged files.
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qents) != damaged {
		t.Errorf("quarantine dir holds %d files, want %d", len(qents), damaged)
	}
	// Damaged entries are never retried: a second read round adds misses
	// but no new quarantines.
	for i := 0; i < damaged; i++ {
		if _, src := s2.GetResult(entries[i].key); src != "" {
			t.Errorf("quarantined entry %d resurrected from %q", i, src)
		}
	}
	if st2 := s2.Stats(); st2.Quarantined != int64(damaged) {
		t.Errorf("re-read quarantined more: %d", st2.Quarantined)
	}
}
