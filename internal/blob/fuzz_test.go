package blob_test

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"flashwalker/internal/blob"
)

// serveBlob sends one request to h, built field by field so that any
// method and path reach the handler, even ones no client would send.
func serveBlob(h http.Handler, method, path, prefix string, body []byte) *httptest.ResponseRecorder {
	r := &http.Request{
		Method:        method,
		URL:           &url.URL{Path: path, RawQuery: url.Values{"prefix": {prefix}}.Encode()},
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// storeContents reads every key of s and its bytes.
func storeContents(t *testing.T, s blob.Store) map[string][]byte {
	t.Helper()
	keys, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if out[k], err = s.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkListing lists h's store under prefix and requires status 200 and
// exactly the store's keys under prefix, each of them valid.
func checkListing(t *testing.T, h http.Handler, s blob.Store, prefix string) {
	t.Helper()
	w := serveBlob(h, http.MethodGet, "/", prefix, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("listing %q: status %d", prefix, w.Code)
	}
	var got []string
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatalf("listing %q: %v", prefix, err)
	}
	var want []string
	for k := range storeContents(t, s) {
		if strings.HasPrefix(k, prefix) {
			want = append(want, k)
		}
	}
	slices.Sort(want)
	for _, k := range got {
		if err := blob.ValidKey(k); err != nil || !strings.HasPrefix(k, prefix) {
			t.Fatalf("listing %q returned key %q (%v)", prefix, k, err)
		}
	}
	if !slices.Equal(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("listing %q = %q, want %q", prefix, got, want)
	}
}

// FuzzBlobHandler drives the blob HTTP handler over an in-memory store
// holding a few keys with an arbitrary method, path, prefix query and
// body. The handler must never panic; a key ValidKey rejects must get 400
// and change nothing; a successful PUT must read back by GET and show in
// a listing under any prefix of it; and a listing must return exactly the
// valid keys under its prefix.
func FuzzBlobHandler(f *testing.F) {
	for _, s := range []struct {
		method, path, prefix string
		body                 []byte
	}{
		{"GET", "/", "", nil},
		{"GET", "/", "snapshots/", nil},
		{"GET", "/", "../", nil},
		{"PUT", "/journal/job-1.json", "journal/", []byte(`{"id":"job-1"}`)},
		{"POST", "/streams/job-1.ndjson", "", []byte("{\"seq\":0}\n")},
		{"DELETE", "/snapshots/job-1.snap", "", nil},
		{"GET", "/snapshots/job-1.snap", "", nil},
		{"GET", "/missing", "", nil},
		{"PUT", "/../escape", "", []byte("x")},
		{"PUT", "/a//b", "", nil},
		{"PUT", "/a\\b", "", nil},
		{"DELETE", "/a/./b", "", nil},
		{"PUT", "/a\x00b", "", nil},
		{"PATCH", "/journal/job-1.json", "", nil},
		{"PUT", "/", "", []byte("x")},
		{"PUT", "//", "", nil},
	} {
		f.Add(s.method, s.path, s.prefix, s.body)
	}
	f.Fuzz(func(t *testing.T, method, path, prefix string, body []byte) {
		store := blob.NewMem()
		for _, k := range []string{"journal/job-1.json", "snapshots/job-1.snap", "streams/job-1.ndjson", "x"} {
			if err := store.Put(k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		h := blob.Handler(store)
		before := storeContents(t, store)
		w := serveBlob(h, method, path, prefix, body)
		key := strings.TrimPrefix(path, "/")
		switch {
		case key == "" && method == http.MethodGet:
			checkListing(t, h, store, prefix)
		case key == "":
			if w.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s on the root: status %d", method, w.Code)
			}
		case blob.ValidKey(key) != nil:
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d for an invalid key", method, key, w.Code)
			}
		case method == http.MethodPut && w.Code == http.StatusNoContent:
			got := serveBlob(h, http.MethodGet, path, "", nil)
			if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), body) {
				t.Fatalf("GET after PUT %q: status %d, %q, want %q", key, got.Code, got.Body.Bytes(), body)
			}
			for i := 0; i <= len(key); i++ {
				checkListing(t, h, store, key[:i])
			}
			return
		}
		if w.Code >= 300 || method == http.MethodGet {
			if after := storeContents(t, store); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("%s %q (status %d) changed the store", method, key, w.Code)
			}
		}
	})
}
