package blob_test

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flashwalker/internal/blob"
)

// eachStore runs f against every Store implementation, so the whole
// contract below is proven for the FS layout, the in-memory map, and the
// HTTP client driven against the package's own Handler.
func eachStore(t *testing.T, f func(t *testing.T, s blob.Store)) {
	t.Run("fs", func(t *testing.T) {
		s, err := blob.NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f(t, s)
	})
	t.Run("mem", func(t *testing.T) {
		f(t, blob.NewMem())
	})
	t.Run("http", func(t *testing.T) {
		ts := httptest.NewServer(blob.Handler(blob.NewMem()))
		t.Cleanup(ts.Close)
		s, err := blob.NewHTTP(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		f(t, s)
	})
}

func TestStoreRoundTrip(t *testing.T) {
	eachStore(t, func(t *testing.T, s blob.Store) {
		if _, err := s.Get("jobs/missing.json"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("Get of absent key: %v, want ErrNotFound", err)
		}
		if err := s.Put("jobs/a.json", []byte("one")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		got, err := s.Get("jobs/a.json")
		if err != nil || string(got) != "one" {
			t.Fatalf("Get = %q, %v; want \"one\"", got, err)
		}
		// Overwrite replaces the whole blob.
		if err := s.Put("jobs/a.json", []byte("two")); err != nil {
			t.Fatalf("overwrite Put: %v", err)
		}
		if got, _ = s.Get("jobs/a.json"); string(got) != "two" {
			t.Fatalf("after overwrite Get = %q, want \"two\"", got)
		}
		if err := s.Delete("jobs/a.json"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := s.Get("jobs/a.json"); !errors.Is(err, blob.ErrNotFound) {
			t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
		}
		if err := s.Delete("jobs/a.json"); err != nil {
			t.Fatalf("Delete of absent key must be a no-op, got %v", err)
		}
	})
}

func TestStoreAppend(t *testing.T) {
	eachStore(t, func(t *testing.T, s blob.Store) {
		// Append to an absent key creates it.
		if err := s.Append("streams/x.ndjson", []byte("a\n")); err != nil {
			t.Fatalf("creating Append: %v", err)
		}
		if err := s.Append("streams/x.ndjson", []byte("b\n")); err != nil {
			t.Fatalf("second Append: %v", err)
		}
		got, err := s.Get("streams/x.ndjson")
		if err != nil || string(got) != "a\nb\n" {
			t.Fatalf("Get after appends = %q, %v; want \"a\\nb\\n\"", got, err)
		}
	})
}

func TestStoreList(t *testing.T) {
	eachStore(t, func(t *testing.T, s blob.Store) {
		all := []string{"jobs/job-10.json", "jobs/job-2.json", "snapshots/job-2.snap",
			"snapx.json", "streams/a/b.ndjson", "streams/a/c/d.ndjson", "streams/ab.ndjson"}
		for _, k := range all {
			if err := s.Put(k, []byte("x")); err != nil {
				t.Fatalf("Put %s: %v", k, err)
			}
		}
		for _, c := range []struct {
			prefix string
			want   []string
		}{
			{"jobs/", []string{"jobs/job-10.json", "jobs/job-2.json"}},
			{"", all},
			// Without a '/' the prefix matches across directories.
			{"snap", []string{"snapshots/job-2.snap", "snapx.json"}},
			{"jobs/job-1", []string{"jobs/job-10.json"}},
			{"streams/a", []string{"streams/a/b.ndjson", "streams/a/c/d.ndjson", "streams/ab.ndjson"}},
			{"streams/a/", []string{"streams/a/b.ndjson", "streams/a/c/d.ndjson"}},
			{"streams/a/c/d", []string{"streams/a/c/d.ndjson"}},
			{"nothing/", nil},
			{"jobs/missing/", nil},
			// A directory part that is not a key path lists nothing and,
			// on a filesystem, never leaves the root.
			{"../", nil},
			{"..", nil},
			{"/jobs/", nil},
			{"/", nil},
			{"jobs//", nil},
			{"./jobs/", nil},
			{"jobs/./", nil},
			{"jobs/../jobs/", nil},
			{"streams/a/../", nil},
		} {
			keys, err := s.List(c.prefix)
			if err != nil {
				t.Fatalf("List(%q): %v", c.prefix, err)
			}
			if len(keys) != 0 || len(c.want) != 0 {
				if !reflect.DeepEqual(keys, c.want) {
					t.Errorf("List(%q) = %v, want %v (sorted)", c.prefix, keys, c.want)
				}
			}
		}
	})
}

func TestStoreRejectsBadKeys(t *testing.T) {
	eachStore(t, func(t *testing.T, s blob.Store) {
		for _, k := range []string{"", "../escape", "a//b", "a/./b", "jobs/", "/abs", "a/\x80"} {
			if err := s.Put(k, []byte("x")); err == nil {
				t.Errorf("Put(%q) accepted an invalid key", k)
			}
			if _, err := s.Get(k); err == nil {
				t.Errorf("Get(%q) accepted an invalid key", k)
			}
		}
	})
}

// TestFSListSkipsTempFiles pins the atomic-Put contract at the listing
// level: a crash can leave a ".tmp-" artifact behind, and it must never
// surface as a key.
func TestFSListSkipsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := blob.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("jobs/a.json", []byte("x")); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "jobs", "a.json.tmp-123")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.List("jobs/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"jobs/a.json"}) {
		t.Fatalf("List = %v, want just jobs/a.json (temp file leaked)", keys)
	}
}

// TestFSListStaysInRoot plants a key-shaped file beside an FS store's root
// and lists it through prefixes whose directory part climbs out: a walk
// that left the root would find it.
func TestFSListStaysInRoot(t *testing.T) {
	dir := t.TempDir()
	s, err := blob.NewFS(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "outside", "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "outside", "jobs", "a.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"../", "../outside/", "../outside/jobs/", "jobs/../../outside/jobs/", "/" + filepath.ToSlash(dir) + "/outside/"} {
		keys, err := s.List(prefix)
		if err != nil || len(keys) != 0 {
			t.Errorf("List(%q) = %v, %v; want nothing", prefix, keys, err)
		}
	}
}

// TestFSLayoutMatchesStateDir pins byte-compatibility with the layout the
// service wrote before the store existed: files created directly on disk
// are visible through the store under their relative keys, and blobs the
// store writes land at the same paths.
func TestFSLayoutMatchesStateDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "job-1.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := blob.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("jobs/job-1.json")
	if err != nil || string(got) != "{}" {
		t.Fatalf("Get of pre-existing file = %q, %v", got, err)
	}
	if err := s.Put("streams/job-1.ndjson", []byte("line\n")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "streams", "job-1.ndjson"))
	if err != nil || string(raw) != "line\n" {
		t.Fatalf("on-disk bytes = %q, %v", raw, err)
	}
}
