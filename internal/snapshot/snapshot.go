// Package snapshot is the durable checkpoint codec: a small, versioned,
// checksummed container for serialized engine and job state, written to
// disk atomically (write-temp + fsync + rename + directory fsync) so a
// crash at any instant leaves either the previous snapshot or the new one,
// never a torn file.
//
// Container layout (all integers big-endian):
//
//	offset 0   magic    "FWSNAP1\n" (8 bytes)
//	offset 8   version  uint32
//	offset 12  kindLen  uint16, then kindLen bytes of kind tag
//	...        payLen   uint64, then payLen bytes of gob payload
//	tail       sha256   32 bytes over everything before it
//
// The kind tag ("core-engine", "core-delta", ...) guards against
// decoding one kind of container as another; the checksum catches torn
// or bit-rotted files; the version gates forward-incompatible payloads.
// Payloads are encoding/gob of exported plain-data structs, so the format
// needs no third-party dependencies and tolerates field additions in
// future versions behind a version bump. Bulk records travel inside them as
// packed byte strings (the core engine's walk stores, core.WalkRecords),
// which gob ships as one length and a copy.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Version is the current container version; Decode rejects every other
// one, and a job whose image fails with ErrVersion re-runs from the start
// (result-identical, the engines being deterministic). Version 2 made the
// core engine's snapshot one type for any board count; version 3 packs its
// walks as binary records and exports its pooled records live-only;
// version 4 drops the event-node pool: pending events carry their walks,
// packed once per board in the order the kernel exports those events;
// version 5 packs the walk, roving batch or fabric transfer each pending
// event names beside that event, and drops the batch and transfer pools,
// the flash op free list and the query caches' hit counters; version 6
// packs those records in one stream in event order instead, numbers saved
// events by their position, and stores a flash op's completion in the
// kernel's plain form.
const Version = 6

var magic = [8]byte{'F', 'W', 'S', 'N', 'A', 'P', '1', '\n'}

// Sentinel errors, matchable with errors.Is.
var (
	// ErrCorrupt marks a truncated, torn, or checksum-failing container.
	ErrCorrupt = errors.New("snapshot: corrupt or truncated")
	// ErrVersion marks a container written by an incompatible version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrKind marks a container holding a different kind of payload than
	// the caller asked for.
	ErrKind = errors.New("snapshot: unexpected kind")
)

// Encode gob-encodes v into a checksummed container tagged with kind. The
// gob stream is written straight into the container behind its header, so
// the payload is copied once.
func Encode(kind string, v any) ([]byte, error) {
	if len(kind) > 1<<16-1 {
		return nil, fmt.Errorf("snapshot: kind tag too long (%d bytes)", len(kind))
	}
	w := &containerWriter{b: make([]byte, 0, len(magic)+4+2+len(kind)+8+sha256.Size)}
	w.b = append(w.b, magic[:]...)
	w.b = binary.BigEndian.AppendUint32(w.b, Version)
	w.b = binary.BigEndian.AppendUint16(w.b, uint16(len(kind)))
	w.b = append(w.b, kind...)
	w.b = binary.BigEndian.AppendUint64(w.b, 0) // the payload length, set below
	start := len(w.b)
	if err := gob.NewEncoder(w).Encode(v); err != nil {
		return nil, fmt.Errorf("snapshot: encode %s payload: %w", kind, err)
	}
	binary.BigEndian.PutUint64(w.b[start-8:start], uint64(len(w.b)-start))
	sum := sha256.Sum256(w.b)
	return append(w.b, sum[:]...), nil
}

// containerWriter appends the gob stream to a container, keeping room for
// the checksum trailer at each write: the encoder writes a value as one
// message, so a large image grows the container once, to its final size.
type containerWriter struct{ b []byte }

func (w *containerWriter) Write(p []byte) (int, error) {
	w.b = append(slices.Grow(w.b, len(p)+sha256.Size), p...)
	return len(p), nil
}

// Decode verifies the container's magic, version, kind, and checksum, then
// gob-decodes the payload into v. wantKind == "" accepts any kind.
func Decode(data []byte, wantKind string, v any) error {
	if len(data) < len(magic)+4+2+8+sha256.Size {
		return fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], sum) {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if !bytes.Equal(body[:len(magic)], magic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	off := len(magic)
	ver := binary.BigEndian.Uint32(body[off:])
	off += 4
	if ver != Version {
		return fmt.Errorf("%w: container version %d, this build reads %d", ErrVersion, ver, Version)
	}
	klen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+klen+8 > len(body) {
		return fmt.Errorf("%w: kind tag overruns container", ErrCorrupt)
	}
	kind := string(body[off : off+klen])
	off += klen
	if wantKind != "" && kind != wantKind {
		return fmt.Errorf("%w: got %q, want %q", ErrKind, kind, wantKind)
	}
	plen := binary.BigEndian.Uint64(body[off:])
	off += 8
	if uint64(len(body)-off) != plen {
		return fmt.Errorf("%w: payload length %d, container holds %d", ErrCorrupt, plen, len(body)-off)
	}
	if err := gob.NewDecoder(bytes.NewReader(body[off:])).Decode(v); err != nil {
		return fmt.Errorf("%w: decode %s payload: %v", ErrCorrupt, kind, err)
	}
	return nil
}

// Seal returns the container's trailing SHA-256 checksum after verifying
// it matches the body. Decode verifies the same checksum, so no run path
// calls Seal; it stays only for the benchmark's snapshot probe
// (bench/layers.go), which names a delta's base image by it.
func Seal(data []byte) ([32]byte, error) {
	var sum [32]byte
	if len(data) < len(magic)+4+2+8+sha256.Size {
		return sum, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], tail) {
		return sum, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	copy(sum[:], tail)
	return sum, nil
}

// WriteFileAtomic writes data to path atomically: a temp file in the same
// directory is written and fsynced, renamed over path, and the directory is
// fsynced so the rename itself is durable. Readers see either the old file
// or the new one, never a torn write.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
