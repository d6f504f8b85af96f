package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"flashwalker/internal/blob"
	"flashwalker/internal/graph"
)

// jsonLine renders rec the way encoding/json's Encoder does.
func jsonLine(t testing.TB, rec *WalkRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzPath turns fuzz bytes into a Path: mode 0 is nil, 1 empty, anything
// else one vertex per (up to) 4 bytes, so small and 32-bit IDs both occur;
// fuzzID folds each below graph.MaxVertices.
func fuzzPath(mode uint8, raw []byte) []graph.VertexID {
	switch mode % 3 {
	case 0:
		return nil
	case 1:
		return []graph.VertexID{}
	}
	var p []graph.VertexID
	for len(raw) > 0 {
		var w [4]byte
		n := copy(w[:], raw)
		raw = raw[n:]
		p = append(p, fuzzID(uint64(binary.LittleEndian.Uint32(w[:])>>(8*(4-n)))))
	}
	return p
}

// fuzzID folds x into a vertex ID.
func fuzzID(x uint64) graph.VertexID { return graph.VertexID(x % graph.MaxVertices) }

// FuzzWalkRecordCodec pins the typed NDJSON codec to encoding/json. On any
// WalkRecord the appender must write exactly the Encoder's bytes and the
// parser must read them back; on any line the parser must give the same
// record and the same accept/reject as json.Unmarshal, save that it also
// refuses the one ID json.Unmarshal lets through and no vertex has.
func FuzzWalkRecordCodec(f *testing.F) {
	lines := []string{
		`{"seq":0,"src":1,"end":2,"hops":80,"sim_time_ns":123456}`,
		`{"seq":7,"src":3,"end":3,"hops":2,"dead_end":true,"sim_time_ns":9}`,
		`{"seq":1,"src":5,"end":9,"hops":3,"path":[5,6,9]}`,
		`{"seq":18446744073709551615,"src":0,"end":0,"hops":4294967295,"sim_time_ns":-9223372036854775808}`,
		`{"seq":18446744073709551616,"src":0,"end":0,"hops":0}`, // seq overflows
		`{"seq":0,"src":0,"end":0,"hops":4294967296}`,           // hops overflows
		`{"seq":01,"src":0,"end":0,"hops":0}`,                   // leading zero
		`{"seq":0,"src":4294967294,"end":4294967294,"hops":1,"path":[4294967294]}`,
		`{"seq":0,"src":4294967295,"end":0,"hops":0}`, // no vertex
		`{"seq":0,"src":0,"end":4294967296,"hops":0}`, // overflows
		`{"seq":0,"src":4294967297,"end":0,"hops":0}`,
		`{"seq":0,"src":0,"end":0,"hops":1,"path":[0,4294967295]}`,
		`{"seq":0,"src":0,"end":0,"hops":1,"path":[4294967296]}`,
		`{"seq":1,"src":2,"end":3,"hops":4,"sim_time_ns":-0}`,
		`{"seq":1,"src":2,"end":3,"hops":4,"dead_end":false}`,
		`{"seq":1,"src":2,"end":3,"hops":4,"path":[]}`,
		`{"seq":1,"src":2,"end":3,"hops":4,"path":null}`,
		`{"seq":1,"src":2,"end":3,"hops":4.5}`,
		`{"seq":1,"src":2,"end":3,"hops":4}x`,
		`{"seq":1,"seq":2,"src":2,"end":3,"hops":4}`,
		`{"SEQ":1,"src":2,"end":3,"hops":4}`,
		`{"hops":4,"end":3,"src":2,"seq":1}`,
		`{ "seq": 1, "src": 2, "end": 3, "hops": 4 }`,
		`{"seq":1}`,
		`{"done":true,"state":"done","next_seq":3}`,
		`null`,
		``,
	}
	for i, l := range lines {
		f.Add(uint64(i), uint64(3*i), uint64(1<<40+i), uint32(i), i%2 == 0, int64(i-3), uint8(i), []byte(l), []byte(l))
	}
	f.Fuzz(func(t *testing.T, seq, src, end uint64, hops uint32, deadEnd bool, simTime int64, pathMode uint8, path, line []byte) {
		rec := WalkRecord{Seq: seq, Src: fuzzID(src), End: fuzzID(end), Hops: hops, DeadEnd: deadEnd,
			SimTimeNS: simTime, Path: fuzzPath(pathMode, path)}
		want := jsonLine(t, &rec)
		got := AppendWalkRecord([]byte("prefix"), &rec)
		if !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("AppendWalkRecord(%+v) = %q, json.Encoder writes %q", rec, got[len("prefix"):], want)
		}
		back, err := ParseWalkRecord(bytes.TrimSpace(want))
		if len(rec.Path) == 0 {
			rec.Path = nil // omitempty drops an empty path
		}
		if err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("ParseWalkRecord(%q) = %+v, %v; want %+v", want, back, err, rec)
		}

		typed, terr := ParseWalkRecord(line)
		var ref WalkRecord
		jerr := json.Unmarshal(line, &ref)
		const none = ^graph.VertexID(0)
		refuse := jerr != nil || ref.Src == none || ref.End == none || slices.Contains(ref.Path, none)
		if (terr == nil) == refuse {
			t.Fatalf("ParseWalkRecord(%q) error %v, json.Unmarshal error %v", line, terr, jerr)
		}
		if !reflect.DeepEqual(typed, ref) {
			t.Fatalf("ParseWalkRecord(%q) = %+v, json.Unmarshal gives %+v", line, typed, ref)
		}
	})
}

// BenchmarkWalkRecordCodec compares the typed codec with encoding/json on a
// typical simulator record, per record.
func BenchmarkWalkRecordCodec(b *testing.B) {
	rec := WalkRecord{Seq: 12345, Src: 48213, End: 90211, Hops: 80, SimTimeNS: 3_141_592_653}
	line := bytes.TrimSpace(jsonLine(b, &rec))
	b.Run("append/typed", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = AppendWalkRecord(buf[:0], &rec)
		}
	})
	b.Run("append/json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := enc.Encode(&rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse/typed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ParseWalkRecord(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse/json", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var r WalkRecord
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParseWalkRecordVertexRange: the largest vertex ID reads back, and
// every ID past it is an error on both parser paths (canonical and
// reordered), never a smaller vertex.
func TestParseWalkRecordVertexRange(t *testing.T) {
	const max = "4294967294"
	for _, line := range []string{
		`{"seq":0,"src":` + max + `,"end":` + max + `,"hops":1,"path":[` + max + `]}`,
		`{"hops":1,"end":` + max + `,"src":` + max + `,"seq":0}`,
	} {
		rec, err := ParseWalkRecord([]byte(line))
		if err != nil || rec.Src != 1<<32-2 || rec.End != 1<<32-2 {
			t.Errorf("%s: %+v, %v", line, rec, err)
		}
	}
	for _, id := range []string{"4294967295", "4294967296", "4294967297"} {
		for _, line := range []string{
			`{"seq":0,"src":` + id + `,"end":0,"hops":0}`,
			`{"seq":0,"src":0,"end":` + id + `,"hops":0}`,
			`{"seq":0,"src":0,"end":0,"hops":1,"path":[0,` + id + `]}`,
			`{"hops":0,"end":0,"src":` + id + `,"seq":0}`,
		} {
			if rec, err := ParseWalkRecord([]byte(line)); err == nil {
				t.Errorf("%s parsed as %+v", line, rec)
			}
		}
	}
}

// TestWalkRecordWireBytes: a finished durable job's spool blob and its
// HTTP stream are byte for byte the encoding/json rendering of its
// records, for a simulator job (sim times) and a deepwalk job (paths).
func TestWalkRecordWireBytes(t *testing.T) {
	store := blob.NewMem()
	srv, m := newTestServer(t, Config{Workers: 1, Store: store})
	for _, spec := range []JobSpec{
		{Graph: "TT-S", NumWalks: 600, Seed: 4},
		{Kind: KindDeepWalk, Graph: "TT-S", Seed: 7, WalksPerVertex: 1, WalkLength: 4},
	} {
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		recs, end := drainStream(t, j, 0)
		if end.State != StateDone || len(recs) == 0 {
			t.Fatalf("%s job: %d records, trailer %+v", spec.Kind, len(recs), end)
		}
		var want []byte
		for i := range recs {
			want = append(want, jsonLine(t, &recs[i])...)
		}

		spool, err := store.Get(streamKey(j.ID))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(spool, want) {
			t.Fatalf("%s job: spool (%d bytes) differs from the encoding/json rendering (%d bytes)",
				spec.Kind, len(spool), len(want))
		}

		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/stream", srv.URL, j.ID))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var trailer bytes.Buffer
		if err := json.NewEncoder(&trailer).Encode(end); err != nil {
			t.Fatal(err)
		}
		if wantHTTP := append(want, trailer.Bytes()...); !bytes.Equal(body, wantHTTP) {
			t.Fatalf("%s job: HTTP stream (%d bytes) differs from the encoding/json rendering (%d bytes)",
				spec.Kind, len(body), len(wantHTTP))
		}
	}
}

// spoolPrefix is n valid spool lines, seqs 0 to n-1.
func spoolPrefix(n uint64) []byte {
	var data []byte
	for i := uint64(0); i < n; i++ {
		data = AppendWalkRecord(data, &WalkRecord{Seq: i, Src: graph.VertexID(10 + i), End: graph.VertexID(20 + i), Hops: 4, SimTimeNS: int64(100 * (i + 1))})
	}
	return data
}

// spoolTail is a tail a crash can leave after three valid spool records.
type spoolTail struct {
	name string
	tail string
	kept bool // the tail is one more valid record
}

// spoolTails are the torn, duplicated and valid tails the recovery table
// checks and the spool fuzzer starts from.
func spoolTails() []spoolTail {
	line := func(seq uint64) string {
		return string(AppendWalkRecord(nil, &WalkRecord{Seq: seq, Src: 1, End: 2, Hops: 4}))
	}
	return []spoolTail{
		{"clean", "", false},
		{"torn-record", `{"seq":3,"src":1,"en`, false},
		{"torn-before-newline", line(3)[:len(line(3))-1], false},
		{"duplicate", line(2), false},
		{"duplicate-then-next", line(2) + line(3), false},
		{"gap", line(4), false},
		{"garbage-line", "not json\n" + line(3), false},
		{"blank-line", "\n" + line(3), false},
		{"next", line(3), true},
		{"next-non-canonical", `{"hops":4,"end":2,"src":1,"seq":3}` + "\n", true},
	}
}

// reopenAndAppend reopens the spool blob holding data, appends the record
// that continues it and flushes; it returns the reopened spool's count and
// the blob's bytes afterwards, with the appended record.
func reopenAndAppend(t *testing.T, data []byte) (uint64, []byte, *WalkRecord) {
	t.Helper()
	store := blob.NewMem()
	if err := store.Put("s.ndjson", data); err != nil {
		t.Fatal(err)
	}
	sp, err := openSpool(store, "s.ndjson", nil)
	if err != nil {
		t.Fatal(err)
	}
	count := sp.count
	next := &WalkRecord{Seq: count, Src: 7, End: 8, Hops: 4}
	sp.append(next)
	sp.flush()
	if sp.err != nil {
		t.Fatal(sp.err)
	}
	after, err := store.Get("s.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	return count, after, next
}

// TestSpoolRecoveryTornTails: on reopen, a spool whose tail a crash tore
// or duplicated is cut back to its gapless prefix, and the next append
// continues that prefix.
func TestSpoolRecoveryTornTails(t *testing.T) {
	good := spoolPrefix(3)
	for _, c := range spoolTails() {
		t.Run(c.name, func(t *testing.T) {
			data := append(append([]byte(nil), good...), c.tail...)
			wantCount, wantOff := uint64(3), int64(len(good))
			if c.kept {
				wantCount, wantOff = 4, int64(len(data))
			}
			count, off := countSpool(data)
			if count != wantCount || off != wantOff {
				t.Fatalf("countSpool = (%d, %d), want (%d, %d)", count, off, wantCount, wantOff)
			}

			count, after, next := reopenAndAppend(t, data)
			if count != wantCount {
				t.Fatalf("reopened spool counts %d records, want %d", count, wantCount)
			}
			want := append(append([]byte(nil), data[:wantOff]...), AppendWalkRecord(nil, next)...)
			if !bytes.Equal(after, want) {
				t.Fatalf("spool after append:\n%q\nwant\n%q", after, want)
			}
			if count, off := countSpool(after); count != wantCount+1 || off != int64(len(after)) {
				t.Fatalf("appended spool counts (%d, %d), want (%d, %d)", count, off, wantCount+1, len(after))
			}
		})
	}
}

// FuzzSpoolRecovery checks spool recovery on n valid records followed by
// arbitrary tail bytes: countSpool keeps at least the n records and cuts
// inside the tail; its valid prefix re-counts the same and scans back as
// seqs 0 to count-1; and reopening the blob, appending the next record and
// flushing leave exactly that prefix plus the record's line.
func FuzzSpoolRecovery(f *testing.F) {
	for _, c := range spoolTails() {
		f.Add(uint8(3), []byte(c.tail))
	}
	f.Add(uint8(0), []byte("{\"seq\":0}\n"))
	f.Fuzz(func(t *testing.T, n uint8, tail []byte) {
		prefix := spoolPrefix(uint64(n % 8))
		data := append(append([]byte(nil), prefix...), tail...)
		count, off := countSpool(data)
		if count < uint64(n%8) || off < int64(len(prefix)) || off > int64(len(data)) {
			t.Fatalf("countSpool = (%d, %d) over %d valid records (%d bytes) and a %d-byte tail",
				count, off, n%8, len(prefix), len(tail))
		}
		valid := data[:off]
		if c, o := countSpool(valid); c != count || o != off {
			t.Fatalf("the valid prefix re-counts (%d, %d), want (%d, %d)", c, o, count, off)
		}
		store := blob.NewMem()
		if err := store.Put("s.ndjson", valid); err != nil {
			t.Fatal(err)
		}
		sc, err := openSpoolScanner(store, "s.ndjson")
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(0); ; seq++ {
			rec, err := sc.scan()
			if err == io.EOF {
				if seq != count {
					t.Fatalf("scanned %d records of the valid prefix, want %d", seq, count)
				}
				break
			}
			if err != nil || seq >= count || rec.Seq != seq {
				t.Fatalf("scan %d of %d: seq %d, %v", seq, count, rec.Seq, err)
			}
		}

		reopened, after, next := reopenAndAppend(t, data)
		if reopened != count {
			t.Fatalf("reopened spool counts %d records, want %d", reopened, count)
		}
		if want := append(append([]byte(nil), valid...), AppendWalkRecord(nil, next)...); !bytes.Equal(after, want) {
			t.Fatalf("spool after append:\n%q\nwant\n%q", after, want)
		}
	})
}
