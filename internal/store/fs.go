package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the store's filesystem seam. The disk layer reaches the OS only
// through this interface so tests can inject write errors (ENOSPC, EACCES),
// kill writes between temp-file creation and rename, and flip bits in stored
// entries without touching a real disk. The default implementation is osFS.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// CreateTemp creates a new temp file in dir whose name starts with
	// pattern; writes go through the returned File.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
}

// File is the writable handle CreateTemp returns: enough surface for the
// store's write-sync-close-rename sequence.
type File interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// osFS is the real filesystem.
type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// join builds store paths with the platform separator; a tiny wrapper so the
// disk layer never imports path/filepath directly in more than one place.
func join(elem ...string) string { return filepath.Join(elem...) }
