package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	iofs "io/fs"
	"strings"
	"time"
)

// Disk entry format, version 1:
//
//	icbestore1 <kind> <sha256-hex> <len>\n
//	<payload bytes>
//
// The header names the format version, the entry kind (always "result"),
// the payload's sha256 and its exact byte length. A reader accepts an entry
// only when all four agree with the payload that follows — anything else
// (torn write, bit flip, truncation, version skew) is corruption,
// quarantined on sight. Only res-<key>.json files are ever opened, so other
// files in the directory (such as the sum-*.json summary entries older
// versions wrote) are never read, counted or quarantined.
const (
	diskMagic     = "icbestore1"
	kindResult    = "result"
	quarantineDir = "quarantine"
	tmpSuffix     = ".tmp"
)

// errCorrupt marks verify-on-read failures, which quarantine the entry and
// never count against the store's health breaker.
var errCorrupt = errors.New("store: corrupt entry")

// disk is the durable layer under the Store: atomic writes (temp file +
// fsync + rename), header-checksummed reads, quarantine for anything that
// fails verification, and an orphan-temp sweep at open. All I/O goes through
// the FS seam and the retry/health wrapper in store.go.
type disk struct {
	dir string
	fs  FS
}

func openDisk(fs FS, dir string) (*disk, error) {
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := fs.MkdirAll(join(dir, quarantineDir), 0o755); err != nil {
		return nil, err
	}
	d := &disk{dir: dir, fs: fs}
	d.sweepTemps()
	return d, nil
}

// sweepTemps removes temp files orphaned by a crash between CreateTemp and
// Rename. Rename is atomic, so an orphan is invisible to readers — the sweep
// is hygiene, not correctness. Errors are ignored: a sweep that fails leaves
// garbage, nothing worse.
func (d *disk) sweepTemps() {
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		// CreateTemp appends a random suffix after the ".tmp" marker, so
		// match by containment, not suffix. Entry names never contain it.
		if !e.IsDir() && strings.Contains(e.Name(), tmpSuffix) {
			_ = d.fs.Remove(join(d.dir, e.Name()))
		}
	}
}

// write persists payload under name atomically: temp file in the same
// directory, sync, close, rename. Any error leaves the previous entry (if
// any) intact.
func (d *disk) write(name string, payload []byte) error {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s %d\n", diskMagic, kindResult, hex.EncodeToString(sum[:]), len(payload))
	f, err := d.fs.CreateTemp(d.dir, name+tmpSuffix)
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write([]byte(header)); err != nil {
		f.Close()
		_ = d.fs.Remove(tmp)
		return err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		_ = d.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		_ = d.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = d.fs.Remove(tmp)
		return err
	}
	if err := d.fs.Rename(tmp, join(d.dir, name)); err != nil {
		_ = d.fs.Remove(tmp)
		return err
	}
	return nil
}

// read loads and verifies the named entry. A missing file returns (nil,
// false, nil). A verification failure quarantines the file and returns
// errCorrupt; other errors are I/O failures for the health breaker.
func (d *disk) read(name string) (payload []byte, ok bool, err error) {
	data, err := d.fs.ReadFile(join(d.dir, name))
	if err != nil {
		if isNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	payload, verr := verifyEntry(data)
	if verr != nil {
		d.quarantine(name)
		return nil, false, errCorrupt
	}
	return payload, true, nil
}

// verifyEntry checks the header and checksum of a raw entry file.
func verifyEntry(data []byte) ([]byte, error) {
	nl := -1
	// The header is short; cap the scan so a corrupt file cannot make us
	// search megabytes for a newline.
	for i := 0; i < len(data) && i < 160; i++ {
		if data[i] == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("no header")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 4 || fields[0] != diskMagic || fields[1] != kindResult {
		return nil, fmt.Errorf("bad header")
	}
	wantSum, err := hex.DecodeString(fields[2])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, fmt.Errorf("bad checksum field")
	}
	var wantLen int
	if _, err := fmt.Sscanf(fields[3], "%d", &wantLen); err != nil || wantLen < 0 {
		return nil, fmt.Errorf("bad length field")
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("length mismatch")
	}
	got := sha256.Sum256(payload)
	if hex.EncodeToString(got[:]) != fields[2] {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// quarantine renames a failed entry into the quarantine subdirectory with a
// timestamp-free, collision-safe name (the original name is unique per key).
// A quarantined entry is never read again and never retried; if the rename
// itself fails the entry is removed outright so it cannot be re-served.
func (d *disk) quarantine(name string) {
	if err := d.fs.Rename(join(d.dir, name), join(d.dir, quarantineDir, name)); err != nil {
		_ = d.fs.Remove(join(d.dir, name))
	}
}

// isNotExist treats fs.ErrNotExist (which os wraps, and which fault
// injecting test filesystems should wrap too) as a plain miss.
func isNotExist(err error) bool { return errors.Is(err, iofs.ErrNotExist) }

// retryDelays yields the capped-doubling backoff schedule for transient I/O
// retries: base, 2*base, ... capped, attempts entries total.
func retryDelays(attempts int, base, cap time.Duration) []time.Duration {
	out := make([]time.Duration, 0, attempts)
	d := base
	for i := 0; i < attempts; i++ {
		out = append(out, d)
		if d *= 2; d > cap {
			d = cap
		}
	}
	return out
}
