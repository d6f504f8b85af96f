package service

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"flashwalker/internal/graph"
)

// The walk-record NDJSON codec. Every record a job streams crosses it twice
// on the server (spool and HTTP stream) and once more in the client, so it
// is typed rather than reflective. AppendWalkRecord writes exactly the
// bytes json.Encoder writes for a *WalkRecord: the canonical layout, with
// seq, src, end and hops always and dead_end, sim_time_ns and path only
// when set, in that order. ParseWalkRecord reads that layout directly and
// hands any other line to encoding/json, so errors and unusual input
// behave exactly as json.Unmarshal does, except that a vertex ID past
// graph.MaxVertices-1 is always an error.

// AppendWalkRecord appends r's NDJSON line, newline included.
func AppendWalkRecord(b []byte, r *WalkRecord) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendUint(b, uint64(r.Src), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendUint(b, uint64(r.End), 10)
	b = append(b, `,"hops":`...)
	b = strconv.AppendUint(b, uint64(r.Hops), 10)
	if r.DeadEnd {
		b = append(b, `,"dead_end":true`...)
	}
	if r.SimTimeNS != 0 {
		b = append(b, `,"sim_time_ns":`...)
		b = strconv.AppendInt(b, r.SimTimeNS, 10)
	}
	if len(r.Path) > 0 {
		b = append(b, `,"path":[`...)
		for i, v := range r.Path {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// ParseWalkRecord decodes one NDJSON line, surrounding whitespace trimmed
// by the caller, with json.Unmarshal's result: the same record and the
// same error or lack of one, but an error for a record naming
// ^graph.VertexID(0), which json.Unmarshal accepts and no vertex has.
func ParseWalkRecord(line []byte) (WalkRecord, error) {
	var rec WalkRecord
	c := cursor{b: line, ok: true}
	if c.canonical(&rec) {
		return rec, nil
	}
	return unmarshalWalkRecord(line)
}

// unmarshalWalkRecord is the encoding/json fallback, kept apart so the
// record on the canonical path does not escape to the heap.
func unmarshalWalkRecord(line []byte) (WalkRecord, error) {
	var rec WalkRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	const none = ^graph.VertexID(0)
	if rec.Src == none || rec.End == none || slices.Contains(rec.Path, none) {
		return rec, fmt.Errorf("service: walk record names vertex %d, past %d", none, graph.MaxVertices-1)
	}
	return rec, nil
}

// cursor scans a line in the canonical record layout; the first mismatch
// clears ok.
type cursor struct {
	b  []byte
	ok bool
}

// canonical parses the whole line as a canonical record into rec.
func (c *cursor) canonical(rec *WalkRecord) bool {
	c.lit(`{"seq":`)
	rec.Seq = c.uint(math.MaxUint64)
	c.lit(`,"src":`)
	rec.Src = c.vertex()
	c.lit(`,"end":`)
	rec.End = c.vertex()
	c.lit(`,"hops":`)
	rec.Hops = uint32(c.uint(math.MaxUint32))
	rec.DeadEnd = c.opt(`,"dead_end":true`)
	if c.opt(`,"sim_time_ns":`) {
		rec.SimTimeNS = c.int()
	}
	if c.opt(`,"path":[`) {
		for {
			rec.Path = append(rec.Path, c.vertex())
			if !c.ok || !c.opt(",") {
				break
			}
		}
		c.lit("]")
	}
	c.lit("}")
	return c.ok && len(c.b) == 0
}

// lit consumes s or fails.
func (c *cursor) lit(s string) {
	if !c.opt(s) {
		c.ok = false
	}
}

// opt consumes s if the line continues with it.
func (c *cursor) opt(s string) bool {
	if !c.ok || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// vertex consumes a vertex ID, no larger than graph.MaxVertices-1.
func (c *cursor) vertex() graph.VertexID {
	return graph.VertexID(c.uint(graph.MaxVertices - 1))
}

// uint consumes a JSON number that is a plain decimal integer no larger
// than max ("0", or digits without a leading zero).
func (c *cursor) uint(max uint64) uint64 {
	if !c.ok || len(c.b) == 0 || c.b[0] < '0' || c.b[0] > '9' {
		c.ok = false
		return 0
	}
	if c.b[0] == '0' {
		c.b = c.b[1:]
		return 0
	}
	var v uint64
	n := 0
	for ; n < len(c.b) && c.b[n] >= '0' && c.b[n] <= '9'; n++ {
		d := uint64(c.b[n] - '0')
		if v > (max-d)/10 {
			c.ok = false
			return 0
		}
		v = 10*v + d
	}
	c.b = c.b[n:]
	return v
}

// int consumes an optionally negative integer in int64 range.
func (c *cursor) int() int64 {
	if c.opt("-") {
		return -int64(c.uint(1 << 63))
	}
	return int64(c.uint(math.MaxInt64))
}
