package blob

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"flashwalker/internal/snapshot"
)

// FS is the local-filesystem Store: key "a/b.ext" lives at <root>/a/b.ext,
// which makes it byte-compatible with the state-directory layout earlier
// versions of the service wrote directly — an old -state-dir tree recovers
// unchanged when wrapped in an FS store.
type FS struct {
	root string
}

// NewFS opens (creating if needed) an FS store rooted at dir.
func NewFS(dir string) (*FS, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: empty FS store root")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: fs store root: %w", err)
	}
	return &FS{root: dir}, nil
}

func (f *FS) path(key string) (string, error) {
	if err := ValidKey(key); err != nil {
		return "", err
	}
	return filepath.Join(f.root, filepath.FromSlash(key)), nil
}

// Put writes the blob atomically (temp file + fsync + rename + directory
// fsync), creating parent directories as needed.
func (f *FS) Put(key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return snapshot.WriteFileAtomic(p, data, 0o644)
}

func (f *FS) Get(key string) ([]byte, error) {
	p, err := f.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, err
	}
	return data, nil
}

func (f *FS) Append(key string, data []byte) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	fh, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (f *FS) Delete(key string) error {
	p, err := f.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// List walks only the prefix's directory, its part up to the last '/',
// since no other directory can hold a key with that prefix. A directory
// part that is not a key path ("..", an empty or "." segment, a leading
// '/') lists nothing, so a prefix can never take the walk out of the root.
func (f *FS) List(prefix string) ([]string, error) {
	dir := f.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		p, err := f.path(prefix[:i])
		if err != nil {
			return nil, nil // no key lies under a path that is not a key path
		}
		dir = p
	}
	var keys []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(f.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		// In-flight atomic-Put temp files carry a ".tmp-" marker; a crash
		// can leave one behind, and it must never surface as a key.
		if strings.Contains(filepath.Base(key), ".tmp-") {
			return nil
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}
