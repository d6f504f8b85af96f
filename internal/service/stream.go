package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"flashwalker/internal/blob"
	"flashwalker/internal/graph"
)

// Streaming walk export. Each streamable job owns a jobStream: a bounded
// in-memory ring of completed-walk records fed by the engine's export
// callback, drained by any number of concurrent HTTP readers. The engine
// side NEVER blocks — publish only appends (to the ring when there is room,
// to the service-side pending overflow otherwise), so a stalled or absent
// consumer cannot perturb the simulated timeline. Back-pressure instead
// falls on the ring: records are not evicted past the slowest attached
// reader, so a stalled reader pauses eviction (pending grows, bounded by
// the job's walk count) rather than pausing the engine.
//
// When the job is durable (manager has a blob store) every record is also
// appended to a spool blob, streams/<id>.ndjson, in the exact wire format
// (AppendWalkRecord, record.go).
// The spool serves two purposes: replay for readers that ask for offsets
// already evicted from the ring, and recovery — after a restart the stream
// resumes at the spool's contiguous record count, so ?from=seq never
// observes a gap (the engine flushes the export buffer before every
// snapshot, hence spooled records always cover the snapshot the job
// resumes from).

var (
	// ErrNoStream reports a job kind that does not produce a walk stream.
	ErrNoStream = errors.New("job does not produce a walk stream")
	// ErrStreamEvicted reports a ?from= offset already evicted from the
	// in-memory ring with no spool to replay it from.
	ErrStreamEvicted = errors.New("requested stream offset no longer available")
)

// WalkRecord is one completed walk on the wire (one NDJSON line).
type WalkRecord struct {
	// Seq is the walk's position in the job-wide finish order: gapless
	// from 0, stable across restarts, usable as a resume offset.
	Seq uint64 `json:"seq"`
	// Src and End are the walk's start and final vertices.
	Src graph.VertexID `json:"src"`
	End graph.VertexID `json:"end"`
	// Hops is the number of hops actually taken.
	Hops uint32 `json:"hops"`
	// DeadEnd marks a walk retired early at a sink vertex.
	DeadEnd bool `json:"dead_end,omitempty"`
	// SimTimeNS is the simulated retirement time (simulator kinds only).
	SimTimeNS int64 `json:"sim_time_ns,omitempty"`
	// Path is the full vertex sequence (deepwalk corpus jobs only).
	Path []graph.VertexID `json:"path,omitempty"`
}

// StreamEnd is the trailer frame closing an NDJSON stream: after it, no
// further records exist ("done") or the client should reconnect from
// NextSeq once more walks have finished.
type StreamEnd struct {
	Done    bool   `json:"done"`
	State   string `json:"state"`
	NextSeq uint64 `json:"next_seq"`
	Error   string `json:"error,omitempty"`
}

// streamBatch bounds how many records a reader serves per lock acquisition
// (and per HTTP flush).
const streamBatch = 256

// defaultStreamRing is the per-job ring capacity when Config.StreamRingWalks
// is zero.
const defaultStreamRing = 4096

// jobStream buffers one job's completed walks between the engine and its
// readers.
type jobStream struct {
	mu  sync.Mutex
	cap int

	// ring holds the contiguous window [first, first+len(ring)); ring[i]
	// has Seq first+i.
	ring  []WalkRecord
	first uint64
	// pending is the service-side overflow: records admitted (spooled,
	// counted in next) but not yet in the ring because eviction is pinned
	// by a slow reader.
	pending []WalkRecord
	// next is the count of admitted records — the seq the next new record
	// must carry; duplicates below it (resumed runs re-emit the tail after
	// the snapshot cut) are dropped on publish.
	next uint64
	// maxDel is the furthest position any reader has been served; it is
	// the eviction floor when no reader is attached. It moves only when a
	// reader is served, so a job nobody reads keeps every record, the
	// ring full and the rest pending: a reader that attaches after submit
	// starts at seq 0 even without a spool. On a daemon with a store,
	// Config.RetainJobs bounds how many finished jobs keep theirs.
	maxDel  uint64
	readers map[*streamReader]uint64

	closed bool
	state  string // terminal job state once closed
	errMsg string
	// notify is closed-and-replaced whenever there is new data or a state
	// change; readers wait on the instance they captured under the lock.
	notify chan struct{}

	spool *spoolFile
}

func newJobStream(capacity int, spool *spoolFile) *jobStream {
	if capacity <= 0 {
		capacity = defaultStreamRing
	}
	s := &jobStream{
		cap:     capacity,
		readers: map[*streamReader]uint64{},
		notify:  make(chan struct{}),
	}
	if spool != nil {
		s.spool = spool
		s.first = spool.count
		s.next = spool.count
		s.maxDel = spool.count
	}
	return s
}

// publish admits a batch of records in seq order. Engine-side: never
// blocks, only appends. Records below next are re-emissions (resume
// overlap) and are dropped; a gap above next can only follow a spool
// truncated by a crash mid-batch, in which case the ring window restarts
// at the incoming seq (readers in the gap replay from the spool or get
// ErrStreamEvicted).
func (s *jobStream) publish(recs []WalkRecord) {
	if len(recs) == 0 {
		return
	}
	s.mu.Lock()
	admitted := false
	for _, r := range recs {
		if r.Seq < s.next {
			continue
		}
		if r.Seq > s.next {
			if len(s.ring) == 0 && len(s.pending) == 0 {
				s.first = r.Seq
			} else {
				continue
			}
		}
		if s.spool != nil && r.Seq == s.spool.count {
			// Only contiguous records go to disk; recovery truncates the
			// spool to its gapless prefix anyway.
			s.spool.append(&r)
		}
		s.pending = append(s.pending, r)
		s.next = r.Seq + 1
		admitted = true
	}
	if admitted {
		if s.spool != nil {
			s.spool.flush()
		}
		s.fill()
		s.wake()
	}
	s.mu.Unlock()
}

// finish marks the stream closed with the job's terminal state. A closed
// stream takes no more records, so once the spool is flushed its write
// buffer goes, and fill drops the pending slice once it is empty: a
// retained job keeps its records, not the buffers' high-water capacity.
func (s *jobStream) finish(state string, errMsg string) {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.state = state
		s.errMsg = errMsg
		if s.spool != nil {
			s.spool.flush()
			s.spool.buf = nil
		}
		s.fill()
		s.wake()
	}
	s.mu.Unlock()
}

// wake signals every waiting reader. Callers hold s.mu.
func (s *jobStream) wake() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// floor returns the lowest position eviction must preserve. Callers hold
// s.mu.
func (s *jobStream) floor() uint64 {
	f := s.maxDel
	for _, pos := range s.readers {
		if pos < f {
			f = pos
		}
	}
	return f
}

// fill moves pending records into the ring, evicting served records from
// the head when the ring is full — but never past the floor. Callers hold
// s.mu. Readers call this too (via next), so a stream that stopped
// publishing still drains its overflow as readers advance.
func (s *jobStream) fill() {
	for len(s.pending) > 0 {
		if len(s.ring) >= s.cap {
			evictable := int(s.floor() - s.first)
			if evictable <= 0 {
				return
			}
			need := len(s.pending)
			if need > evictable {
				need = evictable
			}
			if need > len(s.ring) {
				need = len(s.ring)
			}
			s.ring = append(s.ring[:0], s.ring[need:]...)
			s.first += uint64(need)
		}
		room := s.cap - len(s.ring)
		if room > len(s.pending) {
			room = len(s.pending)
		}
		s.ring = append(s.ring, s.pending[:room]...)
		s.pending = append(s.pending[:0], s.pending[room:]...)
	}
	if cap(s.pending) > 4*s.cap || s.closed && len(s.pending) == 0 {
		s.pending = nil
	}
}

// attach registers a reader at position from. Offsets before the retained
// window are served from the spool when one exists; without a spool they
// fail with ErrStreamEvicted (the error message carries the first
// available offset). Offsets beyond next are legal: the reader waits for
// the walks to finish.
func (s *jobStream) attach(from uint64) (*streamReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < s.first && s.spool == nil {
		return nil, fmt.Errorf("offset %d evicted, first available is %d: %w",
			from, s.first, ErrStreamEvicted)
	}
	r := &streamReader{s: s, pos: from}
	s.readers[r] = from
	return r, nil
}

// streamReader is one consumer's cursor into the stream.
type streamReader struct {
	s   *jobStream
	pos uint64
	sc  *spoolScanner
}

// detach unregisters the reader, releasing its eviction pin.
func (r *streamReader) detach() {
	s := r.s
	s.mu.Lock()
	delete(s.readers, r)
	s.fill() // the pin may have been the only thing blocking the overflow
	s.wake()
	s.mu.Unlock()
	r.sc = nil
}

// Pos is the next seq this reader will be served.
func (r *streamReader) Pos() uint64 { return r.pos }

// next returns the next batch of records, blocking until data is
// available, the stream closes, or ctx is done. A nil batch with a
// non-nil end means the stream is complete; a nil batch with nil end
// never happens without an error.
func (r *streamReader) next(ctx context.Context) ([]WalkRecord, *StreamEnd, error) {
	s := r.s
	for {
		s.mu.Lock()
		// The reader drives the overflow drain: with publishing finished
		// and this reader pinning the floor, nobody else will move
		// pending into the ring.
		s.fill()
		if r.pos < s.first {
			// Behind the retained window — replay from the spool (attach
			// guaranteed one exists).
			limit := s.first
			s.mu.Unlock()
			batch, err := r.spoolBatch(limit)
			if err != nil {
				return nil, nil, err
			}
			if len(batch) > 0 {
				r.pos = batch[len(batch)-1].Seq + 1
				s.mu.Lock()
				s.readers[r] = r.pos
				s.mu.Unlock()
				return batch, nil, nil
			}
			// Spool exhausted below the window: the missing records were
			// lost to a crash mid-batch. Resync at the window start.
			r.pos = limit
			continue
		}
		if r.pos < s.first+uint64(len(s.ring)) {
			i := int(r.pos - s.first)
			n := len(s.ring) - i
			if n > streamBatch {
				n = streamBatch
			}
			batch := append([]WalkRecord(nil), s.ring[i:i+n]...)
			r.pos += uint64(n)
			s.readers[r] = r.pos
			if r.pos > s.maxDel {
				s.maxDel = r.pos
			}
			// Advancing the floor may unblock the overflow for everyone.
			s.fill()
			s.wake()
			s.mu.Unlock()
			return batch, nil, nil
		}
		if s.closed && len(s.pending) == 0 {
			end := &StreamEnd{Done: true, State: s.state, NextSeq: r.pos, Error: s.errMsg}
			s.mu.Unlock()
			return nil, end, nil
		}
		ch := s.notify
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-ch:
		}
	}
}

// spoolBatch reads up to streamBatch records with r.pos <= Seq < limit
// from the spool. A scanner reads a point-in-time copy of the spool blob,
// so when it comes back empty the reader retries once over a fresh copy —
// records appended since the copy was taken must not be mistaken for
// records lost to a crash (that misdiagnosis would make the caller resync
// past them, silently skipping data that exists in the store).
func (r *streamReader) spoolBatch(limit uint64) ([]WalkRecord, error) {
	fresh := false
	if r.sc == nil || r.sc.next > r.pos {
		sc, err := openSpoolScanner(r.s.spool.store, r.s.spool.key)
		if err != nil {
			return nil, err
		}
		r.sc = sc
		fresh = true
	}
	for {
		var out []WalkRecord
		for len(out) < streamBatch {
			rec, err := r.sc.scan()
			if err != nil {
				if err == io.EOF {
					break
				}
				return nil, err
			}
			if rec.Seq < r.pos {
				continue
			}
			if rec.Seq >= limit {
				r.sc.unread(rec)
				break
			}
			out = append(out, rec)
		}
		if len(out) > 0 || fresh {
			return out, nil
		}
		sc, err := openSpoolScanner(r.s.spool.store, r.s.spool.key)
		if err != nil {
			return nil, err
		}
		r.sc = sc
		fresh = true
	}
}

// spoolFile is the append side of a stream's NDJSON spool blob. All
// methods are called under the owning jobStream's lock. Records are
// encoded into an in-memory buffer and shipped to the store with Append
// on flush (publish flushes after every admitted batch).
type spoolFile struct {
	store blob.Store
	key   string
	buf   []byte
	count uint64 // contiguous records in the store
	err   error  // first write error; spooling stops after one
	// onErr reports the first failed store write to the manager's
	// persist-error accounting (nil-safe).
	onErr func(error)
}

// openSpool opens (creating or recovering) the spool blob at key.
// Existing contents are verified for seq contiguity from 0; a torn or
// non-contiguous tail left by a crash mid-append is cut back to the
// longest valid prefix so appends continue gaplessly.
func openSpool(store blob.Store, key string, onErr func(error)) (*spoolFile, error) {
	data, err := store.Get(key)
	if err != nil && !errors.Is(err, blob.ErrNotFound) {
		return nil, err
	}
	count, off := countSpool(data)
	if int64(len(data)) != off {
		if err := store.Put(key, data[:off]); err != nil {
			return nil, err
		}
	}
	return &spoolFile{store: store, key: key, count: count, onErr: onErr}, nil
}

// countSpool returns the number of contiguous records (Seq 0,1,2,...) at
// the start of the spool bytes, and the byte offset just past the last
// valid one. Nil data is an empty spool.
func countSpool(data []byte) (count uint64, off int64) {
	for {
		line, rest, ok := nextLine(data[off:])
		if !ok {
			// Torn tail (no newline): keep the valid prefix.
			return count, off
		}
		rec, err := ParseWalkRecord(line)
		if err != nil || rec.Seq != count {
			return count, off
		}
		count++
		off = int64(len(data) - len(rest))
	}
}

// nextLine splits the first newline-terminated line off data, trimmed of
// surrounding whitespace; ok is false at a torn (unterminated) tail.
func nextLine(data []byte) (line, rest []byte, ok bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, data, false
	}
	return bytes.TrimSpace(data[:i]), data[i+1:], true
}

func (s *spoolFile) append(rec *WalkRecord) {
	if s.err != nil {
		return
	}
	s.buf = AppendWalkRecord(s.buf, rec)
	s.count++
}

func (s *spoolFile) flush() {
	if s.err != nil || len(s.buf) == 0 {
		return
	}
	if err := s.store.Append(s.key, s.buf); err != nil {
		s.fail(err)
		return
	}
	s.buf = s.buf[:0]
}

// fail latches the spool's first error and reports it once.
func (s *spoolFile) fail(err error) {
	s.err = err
	if s.onErr != nil {
		s.onErr(err)
	}
}

// spoolScanner reads wire records back out of a point-in-time copy of the
// spool blob, in order.
type spoolScanner struct {
	data   []byte // the copy's unread bytes
	next   uint64 // seq of the next record scan will return
	peeked *WalkRecord
}

func openSpoolScanner(store blob.Store, key string) (*spoolScanner, error) {
	data, err := store.Get(key)
	if err != nil {
		if errors.Is(err, blob.ErrNotFound) {
			data = nil
		} else {
			return nil, err
		}
	}
	return &spoolScanner{data: data}, nil
}

// scan returns the next record, or io.EOF at the end of the valid prefix.
func (sc *spoolScanner) scan() (WalkRecord, error) {
	if sc.peeked != nil {
		rec := *sc.peeked
		sc.peeked = nil
		sc.next = rec.Seq + 1
		return rec, nil
	}
	line, rest, ok := nextLine(sc.data)
	if !ok {
		return WalkRecord{}, io.EOF
	}
	sc.data = rest
	rec, err := ParseWalkRecord(line)
	if err != nil {
		return WalkRecord{}, io.EOF
	}
	sc.next = rec.Seq + 1
	return rec, nil
}

// unread pushes rec back so the next scan returns it again.
func (sc *spoolScanner) unread(rec WalkRecord) {
	sc.peeked = &rec
	sc.next = rec.Seq
}
