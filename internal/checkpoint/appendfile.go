package checkpoint

import (
	"fmt"
	"os"
	"sync"

	"mobilecache/internal/faultfs"
)

// AppendFile is the crash-safe append-only sink shared by the sweep
// journal and the runner's incremental failure manifest. Each Append
// lands in a single write syscall on an O_APPEND descriptor, so
// concurrent appenders can never interleave bytes inside one record,
// and the file is fsynced every SyncEvery appends and on Close, so a
// SIGKILL loses at most the records since the last sync (and a torn
// final write, which framed readers detect and discard).
//
// Errors are sticky (fsyncgate semantics): after any failed write or
// fsync, every later Append and Sync returns the first error without
// touching the file — the kernel may have dropped the dirty pages a
// failed fsync covered, so continuing to append would acknowledge
// records that can never be made durable.
type AppendFile struct {
	mu        sync.Mutex
	f         faultfs.File
	syncEvery int
	sinceSync int
	err       error // first fatal write/sync error; sticky
}

// DefaultSyncEvery is the default fsync cadence in appends.
const DefaultSyncEvery = 16

// NewAppendFileFS opens (creating if needed) path on fsys for
// appending. syncEvery <= 0 selects DefaultSyncEvery; 1 fsyncs every
// append.
func NewAppendFileFS(fsys faultfs.FS, path string, syncEvery int) (*AppendFile, error) {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &AppendFile{f: f, syncEvery: syncEvery}, nil
}

// newAppendFileFrom wraps an already-positioned file (journal resume
// truncates the corrupt tail first, then hands the descriptor over).
func newAppendFileFrom(f faultfs.File, syncEvery int) *AppendFile {
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}
	return &AppendFile{f: f, syncEvery: syncEvery}
}

// Append writes p as one record. A short write poisons the file: every
// later Append returns the first error, because bytes after a partial
// record would be unreachable to a framed reader anyway.
func (a *AppendFile) Append(p []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	if _, err := a.f.Write(p); err != nil {
		a.err = fmt.Errorf("checkpoint: append to %s: %w", a.f.Name(), err)
		return a.err
	}
	a.sinceSync++
	if a.sinceSync >= a.syncEvery {
		return a.syncLocked()
	}
	return nil
}

// Sync forces an fsync of everything appended so far.
func (a *AppendFile) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	return a.syncLocked()
}

func (a *AppendFile) syncLocked() error {
	if err := a.f.Sync(); err != nil {
		a.err = fmt.Errorf("checkpoint: fsync %s: %w", a.f.Name(), err)
		return a.err
	}
	a.sinceSync = 0
	return nil
}

// Close syncs and closes the file. Safe to call once.
func (a *AppendFile) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	serr := a.err
	if serr == nil && a.sinceSync > 0 {
		serr = a.f.Sync()
	}
	cerr := a.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Name reports the underlying file path.
func (a *AppendFile) Name() string { return a.f.Name() }
