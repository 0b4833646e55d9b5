package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// OpKind names one faultable filesystem operation.
type OpKind int

const (
	OpCreate OpKind = iota
	OpOpenFile
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpReadDir
	OpReadFile
	OpMkdirAll
	OpTruncate
	OpDirSync
)

// String renders the kind for error messages and op traces.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpOpenFile:
		return "openfile"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpReadDir:
		return "readdir"
	case OpReadFile:
		return "readfile"
	case OpMkdirAll:
		return "mkdirall"
	case OpTruncate:
		return "truncate"
	case OpDirSync:
		return "dirsync"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is one operation presented to the injector before it executes.
type Op struct {
	// N is the operation's zero-based global sequence number.
	N int
	// Kind is what the operation does.
	Kind OpKind
	// Path is the operation's target (the source for renames).
	Path string
	// Path2 is the rename destination, empty otherwise.
	Path2 string
}

func (o Op) String() string {
	if o.Path2 != "" {
		return fmt.Sprintf("#%d %s %s -> %s", o.N, o.Kind, o.Path, o.Path2)
	}
	return fmt.Sprintf("#%d %s %s", o.N, o.Kind, o.Path)
}

// Fault is an injector's verdict for one op.
type Fault struct {
	// Err fails the op with this error (wrapped with op context).
	Err error
	// Keep, for OpWrite with a non-nil Err, performs a short write of
	// Keep bytes before failing — the torn-record generator.
	Keep int
	// Crash simulates power loss at this op: the op fails with
	// ErrCrashed, every byte written since each file's last successful
	// fsync is dropped from disk, and all later ops fail with
	// ErrCrashed until the filesystem is reopened by a new process
	// (a fresh FS in tests).
	Crash bool
}

// Injector decides, deterministically, which ops fault. A nil return
// lets the op through; implementations must be safe for concurrent
// calls (the FaultFS serializes op numbering, not injection logic).
type Injector interface {
	Fault(Op) *Fault
}

// ErrCrashed marks operations refused because the injector simulated a
// crash: the "process" is gone and only a reopen (a new FS over the
// same directory) can continue.
var ErrCrashed = errors.New("faultfs: simulated crash")

// FaultFS wraps the real filesystem with a deterministic fault
// injector. Every operation consults the injector, in one global
// numbered sequence, before touching the real filesystem.
type FaultFS struct {
	inj Injector

	mu      sync.Mutex
	n       int
	crashed bool
	// synced/size track each written path's durable and current byte
	// length so a simulated crash can drop unsynced data exactly the
	// way power loss does for the sequential writers this repo uses.
	synced map[string]int64
	size   map[string]int64
}

// New wraps the real filesystem with inj. A nil injector passes every
// operation through (useful for op counting via Ops).
func New(inj Injector) *FaultFS {
	return &FaultFS{inj: inj, synced: map[string]int64{}, size: map[string]int64{}}
}

// Ops reports how many operations the FS has sequenced so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// check numbers the op, consults the injector, and applies crash
// semantics. It returns the fault to apply (nil for a clean op).
func (f *FaultFS) check(kind OpKind, path, path2 string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := Op{N: f.n, Kind: kind, Path: path, Path2: path2}
	f.n++
	if f.crashed {
		return &Fault{Err: ErrCrashed}
	}
	var ft *Fault
	if f.inj != nil {
		ft = f.inj.Fault(op)
	}
	if ft == nil {
		return nil
	}
	if ft.Crash {
		f.crashed = true
		f.dropUnsyncedLocked()
		return &Fault{Err: ErrCrashed, Keep: ft.Keep, Crash: true}
	}
	if ft.Err == nil {
		ft = &Fault{Err: fmt.Errorf("faultfs: injected fault"), Keep: ft.Keep}
	}
	return ft
}

// dropUnsyncedLocked truncates every tracked file back to its last
// fsynced length — the on-disk state a power loss leaves behind for
// the append-only and write-then-rename patterns this repo uses.
func (f *FaultFS) dropUnsyncedLocked() {
	for path, size := range f.size {
		durable := f.synced[path]
		if durable < size {
			os.Truncate(path, durable)
		}
	}
}

// opErr wraps an injected error with the op's context so failures in
// logs read as what they are.
func opErr(op OpKind, path string, err error) error {
	if errors.Is(err, ErrCrashed) {
		return fmt.Errorf("faultfs: %s %s: %w", op, path, ErrCrashed)
	}
	return fmt.Errorf("faultfs: injected %s fault on %s: %w", op, path, err)
}

func (f *FaultFS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	if ft := f.check(OpOpenFile, path, ""); ft != nil {
		return nil, opErr(OpOpenFile, path, ft.Err)
	}
	file, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f.track(file, flag&os.O_TRUNC != 0), nil
}

func (f *FaultFS) Create(path string) (File, error) {
	if ft := f.check(OpCreate, path, ""); ft != nil {
		return nil, opErr(OpCreate, path, ft.Err)
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f.track(file, true), nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if ft := f.check(OpReadFile, path, ""); ft != nil {
		return nil, opErr(OpReadFile, path, ft.Err)
	}
	return os.ReadFile(path)
}

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) {
	if ft := f.check(OpReadDir, path, ""); ft != nil {
		return nil, opErr(OpReadDir, path, ft.Err)
	}
	return os.ReadDir(path)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if ft := f.check(OpRename, oldpath, newpath); ft != nil {
		return opErr(OpRename, oldpath+" -> "+newpath, ft.Err)
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	if sz, ok := f.size[oldpath]; ok {
		f.size[newpath] = sz
		f.synced[newpath] = f.synced[oldpath]
		delete(f.size, oldpath)
		delete(f.synced, oldpath)
	}
	f.mu.Unlock()
	return nil
}

func (f *FaultFS) Remove(path string) error {
	if ft := f.check(OpRemove, path, ""); ft != nil {
		return opErr(OpRemove, path, ft.Err)
	}
	f.forget(path)
	return os.Remove(path)
}

func (f *FaultFS) RemoveAll(path string) error {
	if ft := f.check(OpRemove, path, ""); ft != nil {
		return opErr(OpRemove, path, ft.Err)
	}
	f.mu.Lock()
	for p := range f.size {
		if p == path || (len(p) > len(path) && p[:len(path)] == path && p[len(path)] == filepath.Separator) {
			delete(f.size, p)
			delete(f.synced, p)
		}
	}
	f.mu.Unlock()
	return os.RemoveAll(path)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if ft := f.check(OpMkdirAll, path, ""); ft != nil {
		return opErr(OpMkdirAll, path, ft.Err)
	}
	return os.MkdirAll(path, perm)
}

func (f *FaultFS) DirSync(path string) error {
	if ft := f.check(OpDirSync, path, ""); ft != nil {
		return opErr(OpDirSync, path, ft.Err)
	}
	return OS.DirSync(path)
}

// forget drops crash tracking for a removed path.
func (f *FaultFS) forget(path string) {
	f.mu.Lock()
	delete(f.size, path)
	delete(f.synced, path)
	f.mu.Unlock()
}

// track registers a writable file for crash accounting. A truncating
// open starts from zero durable bytes; an appending open inherits the
// on-disk size as durable (it survived the previous "process").
func (f *FaultFS) track(file *os.File, truncated bool) File {
	var size int64
	if !truncated {
		if st, err := file.Stat(); err == nil {
			size = st.Size()
		}
	}
	f.mu.Lock()
	f.size[file.Name()] = size
	f.synced[file.Name()] = size
	f.mu.Unlock()
	return &faultFile{fs: f, f: file}
}

// faultFile threads the injector through per-file ops and maintains
// the crash-accounting sizes. The tracking assumes the sequential
// write patterns the persistence layer uses (append-only files and
// write-whole-then-rename temporaries), which is exactly where the
// torture harness points it.
type faultFile struct {
	fs *FaultFS
	f  *os.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ft := ff.fs.check(OpWrite, ff.f.Name(), "")
	if ft != nil && ft.Keep <= 0 {
		return 0, opErr(OpWrite, ff.f.Name(), ft.Err)
	}
	q := p
	if ft != nil && ft.Keep < len(q) {
		q = q[:ft.Keep]
	}
	n, err := ff.f.Write(q)
	ff.fs.mu.Lock()
	ff.fs.size[ff.f.Name()] += int64(n)
	ff.fs.mu.Unlock()
	if err != nil {
		return n, err
	}
	if ft != nil {
		return n, opErr(OpWrite, ff.f.Name(), ft.Err)
	}
	return n, nil
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.f.Read(p) }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := ff.f.Seek(offset, whence)
	if err == nil {
		ff.fs.mu.Lock()
		if pos > ff.fs.size[ff.f.Name()] {
			ff.fs.size[ff.f.Name()] = pos
		}
		ff.fs.mu.Unlock()
	}
	return pos, err
}

func (ff *faultFile) Truncate(size int64) error {
	if ft := ff.fs.check(OpTruncate, ff.f.Name(), ""); ft != nil {
		return opErr(OpTruncate, ff.f.Name(), ft.Err)
	}
	if err := ff.f.Truncate(size); err != nil {
		return err
	}
	ff.fs.mu.Lock()
	ff.fs.size[ff.f.Name()] = size
	if ff.fs.synced[ff.f.Name()] > size {
		ff.fs.synced[ff.f.Name()] = size
	}
	ff.fs.mu.Unlock()
	return nil
}

func (ff *faultFile) Sync() error {
	if ft := ff.fs.check(OpSync, ff.f.Name(), ""); ft != nil {
		return opErr(OpSync, ff.f.Name(), ft.Err)
	}
	if err := ff.f.Sync(); err != nil {
		return err
	}
	ff.fs.mu.Lock()
	ff.fs.synced[ff.f.Name()] = ff.fs.size[ff.f.Name()]
	ff.fs.mu.Unlock()
	return nil
}

func (ff *faultFile) Close() error {
	if ft := ff.fs.check(OpClose, ff.f.Name(), ""); ft != nil {
		ff.f.Close()
		return opErr(OpClose, ff.f.Name(), ft.Err)
	}
	return ff.f.Close()
}

func (ff *faultFile) Name() string { return ff.f.Name() }
