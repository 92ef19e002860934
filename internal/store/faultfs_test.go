package store

import (
	"errors"
	"sync"
)

// errInject is the transient I/O failure the fault FS returns (think ENOSPC
// or EACCES — an errno, not corruption).
var errInject = errors.New("injected I/O failure")

// faultFS wraps the real filesystem with switchable failure modes, the test
// seam the chaos tests drive: refuse reads, refuse writes, or kill an
// in-flight write between temp-file creation and rename (the crash window
// atomic replacement protects against).
type faultFS struct {
	osFS
	mu         sync.Mutex
	failReads  bool
	failWrites bool
	killRename bool // drop the rename silently: the entry never appears
	reads      int
	writes     int
}

func (f *faultFS) set(mut func(*faultFS)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(f)
}

func (f *faultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	fail := f.failReads
	f.reads++
	f.mu.Unlock()
	if fail {
		return nil, errInject
	}
	return f.osFS.ReadFile(name)
}

func (f *faultFS) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	fail := f.failWrites
	f.writes++
	f.mu.Unlock()
	if fail {
		return nil, errInject
	}
	return f.osFS.CreateTemp(dir, pattern)
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	kill := f.killRename
	f.mu.Unlock()
	if kill {
		// Simulate a crash after the temp write but before the rename: the
		// temp file stays, the destination never appears.
		return nil
	}
	return f.osFS.Rename(oldpath, newpath)
}
