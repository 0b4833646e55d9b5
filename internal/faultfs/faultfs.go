// Package faultfs is the injectable filesystem seam under every
// durable writer in this repository: the checkpoint journal and
// AppendFile, the jobs store's atomic JSON rewrites, the incremental
// failure manifests and the engine's CSV sinks all perform their I/O
// through the FS interface instead of calling the os package directly.
//
// Two implementations exist. OS is the pass-through production
// filesystem, a thin wrapper over the os package. New wraps it with a
// deterministic fault injector for tests: fail the Nth operation, fail
// every operation matching a path pattern, cut a write short, run an
// ENOSPC streak, fail an fsync, or simulate a whole-process crash that drops every byte written since the last
// successful fsync. The torture harness (internal/faultfs/torture)
// uses the injector to enumerate every fault point in a sweep and a
// daemon job lifecycle and prove the recovery invariants DESIGN.md
// documents.
package faultfs

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable-file surface the persistence layer uses. It is
// exactly the subset of *os.File the durable writers touch, so the
// pass-through implementation returns *os.File unchanged.
type File interface {
	io.Writer
	io.Reader
	io.Seeker
	// Truncate cuts the file to size bytes (journal resume truncates
	// torn tails before appending).
	Truncate(size int64) error
	// Sync flushes the file's data to stable storage.
	Sync() error
	Close() error
	Name() string
}

// FS is the filesystem operation set behind every durable writer.
// Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile generalizes open; flag and perm follow os.OpenFile.
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	// Create truncates-or-creates path for writing (os.Create).
	Create(path string) (File, error)
	// ReadFile returns the whole content of path (os.ReadFile).
	ReadFile(path string) ([]byte, error)
	// ReadDir lists path's entries sorted by name (os.ReadDir).
	ReadDir(path string) ([]fs.DirEntry, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	// Durability of the rename itself needs a DirSync of the parent.
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	// DirSync fsyncs the directory at path, making previously renamed
	// or created entries durable against power loss. Every atomic
	// rename in this repository is followed by a DirSync of the parent
	// (see WriteFileAtomic).
	DirSync(path string) error
}

// OS is the production pass-through filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (osFS) Create(path string) (File, error) { return os.Create(path) }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) DirSync(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
