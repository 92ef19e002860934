package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/restructure"
)

// update regenerates the wire goldens under testdata/wire/.
var update = flag.Bool("update", false, "rewrite wire golden files")

// checkWireGolden compares got with testdata/wire/<name>.golden byte for
// byte, or rewrites the golden under -update.
func checkWireGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/server -run TestWireFormat -update): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: wire bytes changed\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestWireFormat pins the JSON encoding of a report: the scrubbed
// /optimize body of two fold-biting paper programs at the full tier and of
// a run with contained failures, and the key order of /stats' driver
// aggregate. Any change to a field's name, order
// or encoding shows up here as a byte difference.
func TestWireFormat(t *testing.T) {
	_, ts := newTestService(t, Config{DefaultDeadline: maxTestDeadline, MaxDeadline: maxTestDeadline})
	for _, name := range []string{"stdio", "goboard"} {
		w := progs.ByName(name)
		status, body := post(t, ts.URL, OptimizeRequest{
			Program: w.Source,
			Input:   w.Train,
			Options: &RequestOptions{Fold: true},
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, status, body)
		}
		checkWireGolden(t, "optimize-fold-"+name, body)
	}
	// A contained failure on every apply puts the failure counts on the wire,
	// in the body and in the aggregate.
	setFaults(t, restructure.FaultInjection{
		AfterApply: func(*ir.Program, ir.NodeID) error { return errors.New("injected") },
	})
	status, body := post(t, ts.URL, OptimizeRequest{Program: okSrc, Run: true})
	if status != http.StatusOK {
		t.Fatalf("okSrc: status %d: %s", status, body)
	}
	checkWireGolden(t, "optimize-validate-failures", body)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Driver json.RawMessage `json:"driver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	keys, err := objectKeys(snap.Driver)
	if err != nil {
		t.Fatal(err)
	}
	checkWireGolden(t, "stats-driver-keys", []byte(strings.Join(keys, "\n")+"\n"))
}

// objectKeys returns the top-level keys of a JSON object in encoded order.
func objectKeys(raw []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil { // '{'
		return nil, err
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return nil, err
		}
	}
	return keys, nil
}
