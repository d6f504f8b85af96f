// Package blob is the pluggable durable-state backend behind the walk
// service: a minimal object-store interface over sealed byte blobs, with
// three implementations — the local filesystem (byte-compatible with the
// state-directory trees earlier versions wrote), an in-memory map for
// tests, and an HTTP client speaking S3-style verbs against a bucket URL.
//
// The service writes three families of keys through one Store:
//
//	jobs/<id>.json        job journal records (whole-record rewrites)
//	snapshots/<id>.snap   engine snapshot containers (internal/snapshot)
//	streams/<id>.ndjson   completed-walk spools (append-only NDJSON)
//
// Because the snapshot codec is versioned, kind-tagged and SHA-256-sealed,
// the bytes are self-validating wherever they land: a job journaled on one
// flashwalkerd can be recovered and resumed by another pointed at the same
// store, which is the storage foundation the multi-node roadmap items
// build on.
package blob

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// ErrNotFound reports a Get against a key with no blob. Implementations
// wrap it so callers can match with errors.Is.
var ErrNotFound = errors.New("blob: not found")

// Store is a flat keyspace of byte blobs. Keys are slash-separated
// relative paths ("jobs/job-3.json"); ValidKey defines the grammar.
//
// The contract every implementation honors:
//
//   - Put is atomic: a concurrent or crash-interrupted reader observes
//     either the previous blob or the new one in full, never a torn mix.
//   - Get returns ErrNotFound (wrapped) for absent keys.
//   - Append extends a blob, creating it when absent. Appends are the one
//     non-sealed write path (the NDJSON spool); readers tolerate a torn
//     tail by truncating to the longest valid prefix.
//   - Delete of an absent key is not an error.
//   - List returns every key with the given prefix, sorted ascending;
//     in-flight temporary artifacts of atomic Puts are never listed.
//
// Methods may be called from multiple goroutines.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Append(key string, data []byte) error
	Delete(key string) error
	List(prefix string) ([]string, error)
}

// ValidKey enforces the key grammar shared by every backend: non-empty,
// valid UTF-8, slash-separated segments with no ".", "..", or empty
// segment, so a key can never escape an FS store's root or alias another
// key, and a listing's JSON carries it unchanged (encoding/json would
// replace invalid bytes with U+FFFD).
func ValidKey(key string) error {
	if key == "" {
		return fmt.Errorf("blob: empty key")
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("blob: key %q is not valid UTF-8", key)
	}
	if strings.ContainsAny(key, "\\\x00") {
		return fmt.Errorf("blob: key %q contains forbidden characters", key)
	}
	for _, seg := range strings.Split(key, "/") {
		switch seg {
		case "", ".", "..":
			return fmt.Errorf("blob: key %q has invalid path segment %q", key, seg)
		}
	}
	return nil
}
