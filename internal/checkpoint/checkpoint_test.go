package checkpoint

import (
	"bytes"
	"fmt"
	"mobilecache/internal/faultfs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testKey(i int) Key {
	k, err := KeyOf("test-entry", i)
	if err != nil {
		panic(err)
	}
	return k
}

// writeJournal creates a journal at path with n payloads of varying
// sizes and returns the payloads.
func writeJournal(t *testing.T, path string, n int) [][]byte {
	t.Helper()
	j, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 10+i*7)
		payloads = append(payloads, p)
		if err := j.Append(testKey(i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return payloads
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	payloads := writeJournal(t, path, 3)
	entries, info, err := ReadFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != 3 || info.DiscardedBytes != 0 {
		t.Fatalf("info = %+v, want 3 entries, 0 discarded", info)
	}
	for i, e := range entries {
		if e.Key != testKey(i) {
			t.Fatalf("entry %d key mismatch", i)
		}
		if !bytes.Equal(e.Data, payloads[i]) {
			t.Fatalf("entry %d payload mismatch", i)
		}
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	a, err := KeyOf("machine", "app", uint64(1))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := KeyOf("machine", "app", uint64(2))
	if a == b {
		t.Fatal("different seeds produced the same key")
	}
	// Length-prefixing: part boundaries must matter.
	c, _ := KeyOf("ab", "c")
	d, _ := KeyOf("a", "bc")
	if c == d {
		t.Fatal("part boundaries do not affect the key")
	}
	e, _ := KeyOf("machine", "app", uint64(1))
	if a != e {
		t.Fatal("identical inputs produced different keys")
	}
}

// tailRecordStart locates the byte offset where the last of n records
// begins, by re-reading the journal and re-framing all but the last.
func tailRecordStart(t *testing.T, data []byte) int {
	t.Helper()
	entries, validLen, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if validLen != len(data) || len(entries) == 0 {
		t.Fatalf("journal not clean: validLen %d of %d, %d entries", validLen, len(data), len(entries))
	}
	last := entries[len(entries)-1]
	return len(data) - (frameLen + KeySize + len(last.Data))
}

// TestRecoverTruncatedAtEveryTailOffset is the property test the PR's
// crash-safety claim rests on: however many bytes of the final record
// a crash managed to write, recovery returns exactly the records
// before it.
func TestRecoverTruncatedAtEveryTailOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	writeJournal(t, full, 3)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	start := tailRecordStart(t, data)
	for cut := start; cut < len(data); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.journal", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		entries, info, err := ReadFS(faultfs.OS, path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(entries) != 2 {
			t.Fatalf("cut %d: recovered %d entries, want exactly the 2-record prefix", cut, len(entries))
		}
		if info.ValidBytes != int64(start) {
			t.Fatalf("cut %d: valid prefix %d bytes, want %d", cut, info.ValidBytes, start)
		}
		if info.DiscardedBytes != int64(cut-start) {
			t.Fatalf("cut %d: discarded %d bytes, want %d", cut, info.DiscardedBytes, cut-start)
		}
	}
}

// TestRecoverCorruptAtEveryTailByte flips each byte of the tail record
// in turn; the CRC (or framing) must reject the record every time, and
// the prefix must survive untouched.
func TestRecoverCorruptAtEveryTailByte(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	writeJournal(t, full, 3)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	start := tailRecordStart(t, data)
	for off := start; off < len(data); off++ {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0xff
		path := filepath.Join(dir, fmt.Sprintf("flip%d.journal", off))
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, info, err := ReadFS(faultfs.OS, path)
		if err != nil {
			t.Fatalf("flip %d: %v", off, err)
		}
		if len(entries) != 2 {
			t.Fatalf("flip %d: recovered %d entries, want 2 (corrupt tail must never be trusted)", off, len(entries))
		}
		if info.ValidBytes != int64(start) {
			t.Fatalf("flip %d: valid prefix %d, want %d", off, info.ValidBytes, start)
		}
	}
}

// TestResumeTruncatesCorruptTail: resuming over a torn tail must
// truncate it so newly appended records are reachable to recovery.
func TestResumeTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.journal")
	writeJournal(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := tailRecordStart(t, data)
	// Simulate a crash halfway through the last record's write.
	if err := os.WriteFile(path, data[:start+5], 0o644); err != nil {
		t.Fatal(err)
	}

	j, entries, info, err := ResumeFS(faultfs.OS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || info.DiscardedBytes != 5 {
		t.Fatalf("resume saw %d entries, %d discarded; want 2 entries, 5 discarded", len(entries), info.DiscardedBytes)
	}
	if err := j.Append(testKey(9), []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	after, info2, err := ReadFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 3 || info2.DiscardedBytes != 0 {
		t.Fatalf("after resume+append: %d entries, %d discarded; want 3 clean entries", len(after), info2.DiscardedBytes)
	}
	if string(after[2].Data) != "post-crash" || after[2].Key != testKey(9) {
		t.Fatalf("post-crash record wrong: %+v", after[2])
	}
	if !reflect.DeepEqual(after[:2], entries) {
		t.Fatal("resume changed the surviving prefix")
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.journal")
	j, entries, info, err := ResumeFS(faultfs.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || info.DiscardedBytes != 0 {
		t.Fatalf("fresh resume: %d entries, %d discarded", len(entries), info.DiscardedBytes)
	}
	if err := j.AppendJSON(testKey(0), map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, _, err := ReadFS(faultfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || string(after[0].Data) != `{"x":1}` {
		t.Fatalf("recovered %v", after)
	}
}

func TestResumePartialHeaderStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.journal")
	if err := os.WriteFile(path, []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, _, err := ResumeFS(faultfs.OS, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries from a torn header: %v", entries)
	}
	if err := j.Append(testKey(1), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	after, _, err := ReadFS(faultfs.OS, path)
	if err != nil || len(after) != 1 {
		t.Fatalf("after = %v, err = %v", after, err)
	}
}

// TestReadRejectsNonJournal: arbitrary files must be refused, not
// "recovered" to zero entries and then truncated by a resume.
func TestReadRejectsNonJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(path, []byte("these are not the records you are looking for"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFS(faultfs.OS, path); err == nil {
		t.Fatal("Read accepted a non-journal file")
	}
	if _, _, _, err := ResumeFS(faultfs.OS, path, 0); err == nil {
		t.Fatal("Resume accepted a non-journal file")
	}
}

func TestAppendFileSharedHelper(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lines.jsonl")
	af, err := NewAppendFileFS(faultfs.OS, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := af.Append([]byte(fmt.Sprintf("{\"i\":%d}\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := af.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n"
	if string(data) != want {
		t.Fatalf("append file holds %q, want %q", data, want)
	}
}
