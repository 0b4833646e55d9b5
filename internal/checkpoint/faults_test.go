package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"mobilecache/internal/faultfs"
)

// faultPayload builds deterministic per-record payloads so frame
// lengths are known exactly (offset enumeration needs them).
func faultPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i)}, 10+i*7)
}

// frameSize is the on-disk length of record i's frame.
func frameSize(i int) int { return frameLen + KeySize + len(faultPayload(i)) }

// TestAppendFileStickyAfterFsyncError pins the fsyncgate semantics the
// PR's satellite demands: after a failed Sync, every later Append must
// return the first error immediately — without writing a byte — and
// Close must report it too. Buffering past a failed fsync would
// acknowledge records the kernel may already have dropped.
func TestAppendFileStickyAfterFsyncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sticky.jsonl")
	fsys := faultfs.New(faultfs.NewPlan().FsyncErrNth(1))
	af, err := NewAppendFileFS(fsys, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("first\n")); err != nil { // sync 0: clean
		t.Fatal(err)
	}
	err = af.Append([]byte("second\n")) // sync 1: EIO
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("append over failed fsync: %v, want EIO", err)
	}
	sizeAfterFault, _ := os.Stat(path)
	for i := 0; i < 3; i++ {
		serr := af.Append([]byte("third\n"))
		if !errors.Is(serr, syscall.EIO) {
			t.Fatalf("append %d after poisoning: %v, want the sticky EIO", i, serr)
		}
	}
	if st, _ := os.Stat(path); st.Size() != sizeAfterFault.Size() {
		t.Fatalf("poisoned AppendFile kept writing: %d bytes, had %d at fault time",
			st.Size(), sizeAfterFault.Size())
	}
	if err := af.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after poisoning: %v, want the sticky EIO", err)
	}
	if err := af.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close after poisoning: %v, want the sticky EIO", err)
	}
}

// TestJournalShortWriteAtEveryOffset extends the torn-tail property
// test one level down: instead of truncating a finished file, the
// fault filesystem cuts the record's write short at every possible
// offset while the journal is being written. Whatever the offset,
// recovery must return exactly the records fsynced before the fault,
// the writer must be poisoned, and a resume must complete the journal
// byte-for-byte.
func TestJournalShortWriteAtEveryOffset(t *testing.T) {
	const records = 3
	for rec := 0; rec < records; rec++ {
		for keep := 0; keep < frameSize(rec); keep++ {
			dir := t.TempDir()
			path := filepath.Join(dir, "cells.ckpt")
			// Write index rec+1: the header is write 0, record i is
			// write i+1 (syncEvery 1 puts a sync between, not a write).
			fsys := faultfs.New(faultfs.NewPlan().ShortWriteNth(rec+1, keep))
			j, err := CreateFS(fsys, path, 1)
			if err != nil {
				t.Fatal(err)
			}
			var faultErr error
			for i := 0; i < records; i++ {
				err := j.Append(testKey(i), faultPayload(i))
				switch {
				case i < rec && err != nil:
					t.Fatalf("rec %d keep %d: record %d failed early: %v", rec, keep, i, err)
				case i == rec && !errors.Is(err, syscall.ENOSPC):
					t.Fatalf("rec %d keep %d: fault did not surface: %v", rec, keep, err)
				case i > rec && (err == nil || !errors.Is(err, faultErr)):
					t.Fatalf("rec %d keep %d: record %d not sticky-poisoned: %v", rec, keep, i, err)
				}
				if i == rec {
					faultErr = err
				}
			}
			j.Close()

			entries, info, err := ReadFS(faultfs.OS, path)
			if err != nil {
				t.Fatalf("rec %d keep %d: read: %v", rec, keep, err)
			}
			if len(entries) != rec {
				t.Fatalf("rec %d keep %d: recovered %d entries, want the %d-record prefix",
					rec, keep, len(entries), rec)
			}
			if info.DiscardedBytes != int64(keep) {
				t.Fatalf("rec %d keep %d: discarded %d bytes, want the %d torn bytes",
					rec, keep, info.DiscardedBytes, keep)
			}

			// Resume over the torn tail with healthy storage: the
			// journal must end up identical to an unfaulted run.
			j2, resumed, _, err := ResumeFS(faultfs.OS, path, 1)
			if err != nil {
				t.Fatalf("rec %d keep %d: resume: %v", rec, keep, err)
			}
			if len(resumed) != rec {
				t.Fatalf("rec %d keep %d: resume saw %d entries, want %d", rec, keep, len(resumed), rec)
			}
			for i := rec; i < records; i++ {
				if err := j2.Append(testKey(i), faultPayload(i)); err != nil {
					t.Fatalf("rec %d keep %d: resumed append %d: %v", rec, keep, i, err)
				}
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			final, info2, err := ReadFS(faultfs.OS, path)
			if err != nil || len(final) != records || info2.DiscardedBytes != 0 {
				t.Fatalf("rec %d keep %d: final journal %d entries, %d discarded, err %v",
					rec, keep, len(final), info2.DiscardedBytes, err)
			}
			for i, e := range final {
				if e.Key != testKey(i) || !bytes.Equal(e.Data, faultPayload(i)) {
					t.Fatalf("rec %d keep %d: final entry %d corrupted", rec, keep, i)
				}
			}
		}
	}
}

// TestJournalENOSPCStreakThenResume interleaves an ENOSPC streak with
// journal appends at every possible start op: the writer poisons at
// the first failed op, recovery trusts only the fsynced prefix, and a
// resume on recovered storage completes the journal.
func TestJournalENOSPCStreakThenResume(t *testing.T) {
	const records = 4
	// A clean run performs: create+header-write (ops 0..1), then per
	// record one write + one sync. Sweep the streak start across all of
	// them, with a streak long enough to catch several ops.
	cleanOps := func() int {
		fsys := faultfs.New(nil)
		path := filepath.Join(t.TempDir(), "count.ckpt")
		j, err := CreateFS(fsys, path, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := j.Append(testKey(i), faultPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return fsys.Ops()
	}()

	for start := 0; start < cleanOps; start++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "cells.ckpt")
		fsys := faultfs.New(faultfs.NewPlan().ENOSPCStreak(start, 3))
		j, err := CreateFS(fsys, path, 1)
		if err != nil {
			// The streak caught the header write: no journal exists;
			// a fresh run on recovered storage must simply work.
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("start %d: create failed oddly: %v", start, err)
			}
			continue
		}
		completed := 0
		poisoned := false
		for i := 0; i < records; i++ {
			err := j.Append(testKey(i), faultPayload(i))
			if err == nil {
				if poisoned {
					t.Fatalf("start %d: append %d succeeded after poisoning", start, i)
				}
				completed++
				continue
			}
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("start %d: append %d: %v, want ENOSPC", start, i, err)
			}
			poisoned = true
		}
		j.Close()

		entries, _, err := ReadFS(faultfs.OS, path)
		if err != nil {
			t.Fatalf("start %d: read: %v", start, err)
		}
		// syncEvery=1 means every acked append was fsynced before the
		// ack, so recovery must return at least the acked prefix. It may
		// return one more: a record whose write landed but whose fsync
		// failed was never acked, yet can still be on disk — harmless,
		// since resume dedups by content key.
		if len(entries) < completed {
			t.Fatalf("start %d: recovered %d entries but %d were acked as durable", start, len(entries), completed)
		}
		for i, e := range entries {
			if e.Key != testKey(i) || !bytes.Equal(e.Data, faultPayload(i)) {
				t.Fatalf("start %d: recovered entry %d corrupted", start, i)
			}
		}

		// Disk recovered: resume and finish.
		j2, resumed, _, err := ResumeFS(faultfs.OS, path, 1)
		if err != nil {
			t.Fatalf("start %d: resume: %v", start, err)
		}
		for i := len(resumed); i < records; i++ {
			if err := j2.Append(testKey(i), faultPayload(i)); err != nil {
				t.Fatalf("start %d: resumed append %d: %v", start, i, err)
			}
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		final, info, err := ReadFS(faultfs.OS, path)
		if err != nil || len(final) != records || info.DiscardedBytes != 0 {
			t.Fatalf("start %d: final journal %d entries, %d discarded, err %v",
				start, len(final), info.DiscardedBytes, err)
		}
	}
}

// TestAppendFileWriteErrorPoisons: a plain failed write (not just a
// failed fsync) poisons the file the same way.
func TestAppendFileWriteErrorPoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.jsonl")
	fsys := faultfs.New(faultfs.NewPlan().FailNthKind(1, faultfs.OpWrite, syscall.EIO))
	af, err := NewAppendFileFS(fsys, path, 100) // no intervening syncs
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("ok\n")); err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("boom\n")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	if err := af.Append([]byte("after\n")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after write error not sticky: %v", err)
	}
	if err := af.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("close hides the sticky error: %v", err)
	}
	if data, _ := os.ReadFile(path); string(data) != "ok\n" {
		t.Fatalf("file holds %q, want only the acked record", data)
	}
}

// TestResumeAfterCrashAtEveryOp drives the journal writer into a
// simulated power loss at every op of its lifetime and proves the
// recover-then-resume contract end to end, including the loss of
// writes that were acked but not yet fsynced (syncEvery > 1): resume
// re-appends them and the final journal is complete.
func TestResumeAfterCrashAtEveryOp(t *testing.T) {
	const records = 4
	cleanOps := func() int {
		fsys := faultfs.New(nil)
		j, err := CreateFS(fsys, filepath.Join(t.TempDir(), "c.ckpt"), 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if err := j.Append(testKey(i), faultPayload(i)); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		return fsys.Ops()
	}()

	for crash := 0; crash < cleanOps; crash++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "cells.ckpt")
		fsys := faultfs.New(faultfs.NewPlan().CrashAtNth(crash))
		func() {
			j, err := CreateFS(fsys, path, 2)
			if err != nil {
				return // crashed before the journal existed
			}
			for i := 0; i < records; i++ {
				if j.Append(testKey(i), faultPayload(i)) != nil {
					return
				}
			}
			j.Close()
		}()

		// "Reboot": resume on healthy storage and complete every record
		// recovery did not preserve.
		j2, resumed, _, err := ResumeFS(faultfs.OS, path, 1)
		if err != nil {
			t.Fatalf("crash %d: resume: %v", crash, err)
		}
		have := map[Key]bool{}
		for _, e := range resumed {
			have[e.Key] = true
		}
		for i := 0; i < records; i++ {
			if have[testKey(i)] {
				continue
			}
			if err := j2.Append(testKey(i), faultPayload(i)); err != nil {
				t.Fatalf("crash %d: re-append %d: %v", crash, i, err)
			}
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		final, info, err := ReadFS(faultfs.OS, path)
		if err != nil || info.DiscardedBytes != 0 {
			t.Fatalf("crash %d: final read: %d discarded, err %v", crash, info.DiscardedBytes, err)
		}
		got := map[Key][]byte{}
		for _, e := range final {
			got[e.Key] = e.Data
		}
		if len(got) != records {
			t.Fatalf("crash %d: final journal has %d distinct records, want %d", crash, len(got), records)
		}
		for i := 0; i < records; i++ {
			if !bytes.Equal(got[testKey(i)], faultPayload(i)) {
				t.Fatalf("crash %d: record %d corrupted after resume", crash, i)
			}
		}
	}
}
