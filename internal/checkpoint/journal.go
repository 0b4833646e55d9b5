// Package checkpoint makes long sweeps crash-safe: each completed
// cell's result is appended to a framed, checksummed journal keyed by
// a content hash of everything that determines the result (machine
// spec, workload profile, seed, run length). A sweep killed at cell
// 4,999 of 5,000 resumes by replaying the journal's valid prefix and
// re-simulating only what is missing; reordering or editing the sweep
// spec cannot mis-attribute entries, because keys hash content, not
// position.
//
// On-disk format: an 8-byte magic header, then records of
//
//	[u32 length n][u32 CRC-32C of the next n bytes][32-byte key][payload]
//
// written via single-syscall appends with periodic fsync. Recovery
// scans from the start and trusts exactly the longest prefix of intact
// records: a torn final write, a truncated tail, or any corrupt byte
// fails the CRC (or the framing) and everything from that point on is
// discarded, never trusted. Resuming truncates the file back to the
// valid prefix before appending, so post-crash records are reachable.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"

	"mobilecache/internal/faultfs"
)

// magic identifies a journal file; bump the digit on format changes.
const magic = "mcckpt1\n"

// KeySize is the byte length of a content-hash key.
const KeySize = sha256.Size

// maxRecord bounds a record's framed length: a length field beyond it
// is treated as corruption, not as a 4GB allocation request.
const maxRecord = 64 << 20

// Key identifies one journal entry by content hash.
type Key [KeySize]byte

// String renders the key as hex for logs and summaries.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes the JSON encodings of parts into a Key. Each part is
// length-prefixed before hashing so ("ab","c") and ("a","bc") cannot
// collide. Marshaling is deterministic for the config/profile structs
// this repo journals (fixed field order, no maps).
func KeyOf(parts ...any) (Key, error) {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return Key{}, fmt.Errorf("checkpoint: keying %T: %w", p, err)
		}
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// Entry is one recovered journal record.
type Entry struct {
	Key  Key
	Data []byte
}

// RecoverInfo summarizes a recovery scan.
type RecoverInfo struct {
	// Entries is how many intact records the valid prefix holds.
	Entries int
	// ValidBytes is the length of the trusted prefix (including the
	// header); DiscardedBytes is what followed it — zero for a cleanly
	// closed journal.
	ValidBytes     int64
	DiscardedBytes int64
}

// crcTable is the Castagnoli polynomial (hardware-accelerated on
// current CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameLen is the fixed per-record overhead before the key+payload.
const frameLen = 8

// appendFrame appends the framed record for (key, data) to buf.
func appendFrame(buf []byte, key Key, data []byte) []byte {
	n := uint32(KeySize + len(data))
	var hdr [frameLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	start := len(buf) + frameLen
	buf = append(buf, hdr[:]...)
	buf = append(buf, key[:]...)
	buf = append(buf, data...)
	binary.LittleEndian.PutUint32(buf[start-4:start], crc32.Checksum(buf[start:], crcTable))
	return buf
}

// Decode scans raw journal bytes (header included) and returns the
// entries of the longest valid prefix plus its byte length. Truncated
// or corrupt tails are not an error — they are the normal post-crash
// state, reported through validLen < len(data). The only error is a
// missing or wrong magic header: such a file is not a journal at all,
// and callers must not truncate or append to it.
func Decode(data []byte) (entries []Entry, validLen int, err error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, 0, fmt.Errorf("checkpoint: missing journal magic (not a journal, or a pre-%q format)", magic)
	}
	off := len(magic)
	for {
		if len(data)-off < frameLen {
			return entries, off, nil
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		if n < KeySize || n > maxRecord || uint64(len(data)-off-frameLen) < uint64(n) {
			return entries, off, nil
		}
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		body := data[off+frameLen : off+frameLen+int(n)]
		if crc32.Checksum(body, crcTable) != want {
			return entries, off, nil
		}
		var e Entry
		copy(e.Key[:], body[:KeySize])
		e.Data = append([]byte(nil), body[KeySize:]...)
		entries = append(entries, e)
		off += frameLen + int(n)
	}
}

// Journal is an open, appendable checkpoint file. Appends are safe
// for concurrent use (sweep workers checkpoint from the pool).
type Journal struct {
	af       *AppendFile
	appended atomic.Int64
}

// Create starts a fresh journal at path, truncating any previous file.
// syncEvery <= 0 selects DefaultSyncEvery.
func Create(path string, syncEvery int) (*Journal, error) {
	return CreateFS(faultfs.OS, path, syncEvery)
}

// CreateFS is Create over an injectable filesystem.
func CreateFS(fsys faultfs.FS, path string, syncEvery int) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: writing header to %s: %w", path, err)
	}
	return &Journal{af: newAppendFileFrom(f, syncEvery)}, nil
}

// ReadFS recovers the entries of the journal at path on fsys without
// opening it for writing. A missing file is zero entries, not an error.
func ReadFS(fsys faultfs.FS, path string) ([]Entry, RecoverInfo, error) {
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, RecoverInfo{}, nil
	}
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	if len(data) < len(magic) && string(data) == magic[:len(data)] {
		// Created but killed before the full header landed (this
		// includes the empty file): same as missing.
		return nil, RecoverInfo{}, nil
	}
	entries, validLen, derr := Decode(data)
	if derr != nil {
		return nil, RecoverInfo{}, fmt.Errorf("%w (file %s)", derr, path)
	}
	info := RecoverInfo{
		Entries:        len(entries),
		ValidBytes:     int64(validLen),
		DiscardedBytes: int64(len(data) - validLen),
	}
	return entries, info, nil
}

// ResumeFS reopens the journal at path on fsys for appending, first
// recovering its valid prefix and truncating away any corrupt tail so
// that new appends land on trusted ground (appending after garbage
// would leave them unreachable to every future recovery). A missing
// file becomes a fresh journal. The recovered entries and scan summary
// are returned so the caller can skip finished work and report what a
// crash lost.
func ResumeFS(fsys faultfs.FS, path string, syncEvery int) (*Journal, []Entry, RecoverInfo, error) {
	entries, info, err := ReadFS(fsys, path)
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	if info.ValidBytes == 0 && info.DiscardedBytes == 0 {
		j, err := CreateFS(fsys, path, syncEvery)
		if err != nil {
			return nil, nil, RecoverInfo{}, err
		}
		return j, nil, RecoverInfo{ValidBytes: int64(len(magic))}, nil
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, RecoverInfo{}, err
	}
	if info.DiscardedBytes > 0 {
		if err := f.Truncate(info.ValidBytes); err != nil {
			f.Close()
			return nil, nil, RecoverInfo{}, fmt.Errorf("checkpoint: truncating corrupt tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(info.ValidBytes, 0); err != nil {
		f.Close()
		return nil, nil, RecoverInfo{}, err
	}
	j := &Journal{af: newAppendFileFrom(f, syncEvery)}
	return j, entries, info, nil
}

// Append journals one completed result under its content key. The
// framed record is written in a single syscall; durability follows the
// journal's fsync cadence (see AppendFile).
func (j *Journal) Append(key Key, data []byte) error {
	if KeySize+len(data) > maxRecord {
		return fmt.Errorf("checkpoint: record of %d bytes exceeds the %d-byte bound", len(data), maxRecord)
	}
	frame := appendFrame(make([]byte, 0, frameLen+KeySize+len(data)), key, data)
	if err := j.af.Append(frame); err != nil {
		return err
	}
	j.appended.Add(1)
	return nil
}

// AppendJSON marshals v and journals it under key.
func (j *Journal) AppendJSON(key Key, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding entry: %w", err)
	}
	return j.Append(key, data)
}

// Appended reports how many records this handle has written.
func (j *Journal) Appended() int { return int(j.appended.Load()) }

// Sync forces everything appended so far to disk.
func (j *Journal) Sync() error { return j.af.Sync() }

// Close syncs and closes the journal.
func (j *Journal) Close() error { return j.af.Close() }
