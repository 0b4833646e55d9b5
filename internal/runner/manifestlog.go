package runner

import (
	"encoding/json"
	"io"
	"os"

	"mobilecache/internal/checkpoint"
	"mobilecache/internal/faultfs"
)

// ManifestLogger persists failures the moment they happen instead of
// only at sweep end: hook its Record method into Config.OnFailure and
// each failure lands on disk as one fsynced JSON line before sibling
// cells finish. A sweep killed mid-flight therefore leaves a readable
// failure log; a sweep that reaches the end calls Finalize, which
// atomically replaces the line log with the canonical indented
// Manifest built from the full outcome set.
type ManifestLogger struct {
	fsys faultfs.FS
	af   *checkpoint.AppendFile
}

// NewManifestLoggerFS truncates path on fsys and opens it for
// incremental failure lines. Every Record is fsynced (failures are rare
// and each one must survive the very crash it may be the first symptom
// of).
func NewManifestLoggerFS(fsys faultfs.FS, path string) (*ManifestLogger, error) {
	if err := fsys.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	af, err := checkpoint.NewAppendFileFS(fsys, path, 1)
	if err != nil {
		return nil, err
	}
	return &ManifestLogger{fsys: fsys, af: af}, nil
}

// Record appends one failure as a JSON line. Safe for concurrent use
// (it is designed to be Config.OnFailure); errors are sticky in the
// underlying append file and surface from Finalize.
func (l *ManifestLogger) Record(e *RunError) {
	line, err := json.Marshal(failureOf(e))
	if err != nil {
		return // a failure we cannot serialize still shows up in Finalize
	}
	_ = l.af.Append(append(line, '\n'))
}

// Finalize closes the incremental log and atomically replaces it with
// the canonical manifest for the whole run. The swap goes through
// faultfs.WriteFileAtomic, so the path never holds a half-written
// manifest and the rename is fsynced into the parent directory; a
// dirsync failure surfaces here rather than being dropped.
func (l *ManifestLogger) Finalize(m Manifest) error {
	path := l.af.Name()
	closeErr := l.af.Close()
	if err := faultfs.WriteFileAtomic(l.fsys, path, func(w io.Writer) error {
		return m.WriteJSON(w)
	}); err != nil {
		return err
	}
	return closeErr
}

// Close abandons the logger without finalizing (the incremental line
// log stays on disk as-is).
func (l *ManifestLogger) Close() error { return l.af.Close() }
