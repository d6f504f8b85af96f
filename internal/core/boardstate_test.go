package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"flashwalker/internal/partition"
	"flashwalker/internal/sim"
	"flashwalker/internal/snapshot"
)

// hostileBoardConfig is the golden workload cut into 256-byte blocks, so
// the partitioning has dense blocks a hostile cache image can name.
func hostileBoardConfig() RunConfig {
	rc := goldenConfig()
	rc.PartCfg.BlockBytes = 256
	return rc
}

// cloneSnapshot deep-copies s through the container codec.
func cloneSnapshot(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	data, err := snapshot.Encode("core-engine", s)
	if err != nil {
		t.Fatal(err)
	}
	out := new(Snapshot)
	if err := snapshot.Decode(data, "core-engine", out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResumeRejectsHostileBoardState feeds ResumeEngine board-accelerator
// images no run could have written — more entries than a query cache
// holds, entries naming a missing, dense or repeated block or a block
// outside the current partition, round-robin cursors outside their rings,
// negative bookings, a hot block past the end, a chip slot holding a
// block outside [-1, NumBlocks), visit counters the run does not keep, a
// flush chip cursor past the chips, a current partition out of range, a
// channel failed over with no degraded chip, a negative score count,
// slot deferrals outside [0, maxLoadDefers], a completed-walk buffer
// outside [0, its flush threshold), flash walk pages that are negative
// or held by an empty store, a flush mark outside its pending list, a
// slot's claimed walks with no load part pending and read-back walks with
// no page pending — and requires an error for each.
// An image that slipped through would index out of range inside resume or
// at the next routed walk, hop or flush, or leave walks no completion ever
// hands on, so an accepted one is also run, for at most ten seconds.
func TestResumeRejectsHostileBoardState(t *testing.T) {
	g := testGraph(t)
	rc := hostileBoardConfig()
	rc.TrackVisits = true
	cut := interruptWhen(t, g, rc, 4, func(s *Snapshot) bool {
		return !s.Preloading() && len(s.Boards[0].Board.Caches[0].Blocks) >= 2
	})
	part, err := partition.Partition(g, rc.PartCfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := part.PartitionSpan(cut.Boards[0].CurPart)
	dense, foreign := -1, -1
	for id := range part.Blocks {
		switch {
		case part.Blocks[id].Dense && id >= first && id <= last:
			dense = id
		case !part.Blocks[id].Dense && (id < first || id > last):
			foreign = id
		}
	}
	if dense < 0 || foreign < 0 {
		t.Fatalf("test partitioning lacks a dense block in the cut's partition (%d) or a block outside it (%d)", dense, foreign)
	}
	capacity := int(rc.Cfg.QueryCacheBytes / rc.Cfg.MappingEntryBytes)
	img0 := &cut.Boards[0]

	// A chip holding a slot with claimed walks and a slot with no load part
	// pending; every load part completes through a flash op.
	loadParts := map[[2]int32]int{}
	for _, op := range img0.Flash.Ops {
		if op.Remaining > 0 && op.Done.Target == targetBoard(0) && op.Done.Kind == evLoadPart {
			slot, _ := splitC(op.Done.C)
			loadParts[[2]int32{op.Done.B, slot}]++
		}
	}
	claimChip, claimFrom, claimTo := -1, -1, -1
	for i := 0; i < len(img0.Chips) && claimChip < 0; i++ {
		slots := img0.Chips[i].Slots
		from := slices.IndexFunc(slots, func(s SlotState) bool { return len(s.LoadWalks) > 0 })
		to := -1
		for k := range slots {
			if loadParts[[2]int32{int32(i), int32(k)}] == 0 {
				to = k
				break
			}
		}
		if from >= 0 && to >= 0 {
			claimChip, claimFrom, claimTo = i, from, to
		}
	}
	// A pending list's last walk moved to the read-back, with the list's
	// flush mark kept inside it.
	parked := slices.IndexFunc(img0.PendingMem, func(rec WalkRecords) bool { return rec != nil })
	if claimChip < 0 || parked < 0 || img0.SwitchWalks != nil {
		t.Fatalf("cut lacks a claimed load beside a slot with no load part pending (chip %d), a pending walk (partition %d) or an idle read-back (%d bytes)",
			claimChip, parked, len(img0.SwitchWalks))
	}
	u := unpacker{be: new(boardEngine)}
	ws := u.walks(img0.PendingMem[parked])
	if u.err != nil {
		t.Fatal(u.err)
	}
	kept := len(ws) - 1
	keptRec, movedRec := new(packer).walks(u.be.wtab, ws[:kept]), new(packer).walks(u.be.wtab, ws[kept:])

	cases := map[string]func(img *BoardImage){
		"over capacity": func(img *BoardImage) {
			c := &img.Board.Caches[0]
			for len(c.Blocks) <= capacity {
				c.Blocks = append(c.Blocks, c.Blocks[0])
			}
		},
		"block past the end":         func(img *BoardImage) { img.Board.Caches[0].Blocks[0] = len(part.Blocks) },
		"negative block":             func(img *BoardImage) { img.Board.Caches[0].Blocks[0] = -1 },
		"dense block":                func(img *BoardImage) { img.Board.Caches[0].Blocks[0] = dense },
		"block of another partition": func(img *BoardImage) { img.Board.Caches[0].Blocks[0] = foreign },
		"repeated block": func(img *BoardImage) {
			c := &img.Board.Caches[0]
			c.Blocks[1] = c.Blocks[0]
		},
		"port cursor past end":  func(img *BoardImage) { img.Board.PortRR = len(img.Board.Ports) },
		"negative port cursor":  func(img *BoardImage) { img.Board.PortRR = -1 },
		"cache cursor past end": func(img *BoardImage) { img.Board.CacheRR = len(img.Board.Caches) },
		"negative cache cursor": func(img *BoardImage) { img.Board.CacheRR = -1 },
		"negative guider booking": func(img *BoardImage) {
			img.Board.Tier.Guider.Units[0].BusyUntil = -1
		},
		"negative port booking": func(img *BoardImage) { img.Board.Ports[0].BusyUntil = -1 },
		"hot block past the end": func(img *BoardImage) {
			img.Board.Tier.HotIDs = append(img.Board.Tier.HotIDs, len(part.Blocks))
		},
		"slot block past the end":  func(img *BoardImage) { img.Chips[0].Slots[0].Block = len(part.Blocks) },
		"slot block below -1":      func(img *BoardImage) { img.Chips[0].Slots[0].Block = -2 },
		"visit counters cut short": func(img *BoardImage) { img.Res.Visits = img.Res.Visits[:3] },
		"flush chip cursor past the end": func(img *BoardImage) {
			img.FlushChipRR = len(img.Flash.ChipNext)
		},
		"failover without a degraded chip": func(img *BoardImage) { img.Chans[0].Failover = true },
		"negative score pending":           func(img *BoardImage) { img.ScorePend[0] = -1 << 30 },
		"slot defers past the bound":       func(img *BoardImage) { img.Chips[0].Slots[0].Defers = maxLoadDefers + 1 },
		"negative slot defers":             func(img *BoardImage) { img.Chips[0].Slots[0].Defers = -1 },
		"chip completed bytes at the threshold": func(img *BoardImage) {
			img.Chips[0].CompletedBytes = rc.Cfg.ChipCompletedBufBytes
		},
		"negative chip completed bytes": func(img *BoardImage) { img.Chips[0].CompletedBytes = -1 },
		"board completed bytes at the threshold": func(img *BoardImage) {
			img.Board.CompletedBytes = rc.Cfg.CompletedBufBytes
		},
		"negative board completed bytes": func(img *BoardImage) { img.Board.CompletedBytes = -1 },
		"negative flash walk pages":      func(img *BoardImage) { img.FLSPages[0] = -1 },
		"flush mark past the list":       func(img *BoardImage) { img.FlushMark[0] = 1 << 20 },
		"negative flush mark":            func(img *BoardImage) { img.FlushMark[0] = -1 },
		"claimed walks with no load part pending": func(img *BoardImage) {
			slots := img.Chips[claimChip].Slots
			slots[claimTo].LoadWalks, slots[claimFrom].LoadWalks = slots[claimFrom].LoadWalks, nil
		},
		"read-back walks with no page pending": func(img *BoardImage) {
			img.PendingMem[parked], img.SwitchWalks = keptRec, movedRec
			img.FlushMark[parked] = min(img.FlushMark[parked], kept)
		},
		"flash walk pages with no walks": func(img *BoardImage) {
			for b, rec := range img.FLS {
				if rec == nil {
					img.FLSPages[b] = 1
					return
				}
			}
		},
	}
	if _, err := ResumeEngine(g, cloneSnapshot(t, cut), Observers{}); err != nil {
		t.Fatalf("unmodified cut rejected: %v", err)
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			mutate(&s.Boards[0])
			e, err := ResumeEngine(g, s, Observers{})
			if err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_, runErr := e.RunContext(ctx)
				t.Fatalf("hostile board state accepted (run: %v)", runErr)
			}
		})
	}
	for _, p := range []int{-2, part.NumPartitions} {
		s := cloneSnapshot(t, cut)
		s.Boards[0].CurPart = p
		if _, err := ResumeEngine(g, s, Observers{}); err == nil {
			t.Fatalf("current partition %d accepted", p)
		}
	}
}

// TestResumeAcceptsQueueLayoutPools resumes real cuts whose unit pools are
// written the way images were when every unit was its own queue: units in
// an arbitrary order, free units carrying the time they last freed rather
// than 0, and per-unit Served/Waited/BusyTotal counters filled in. Only
// each unit's busy-until matters, so every such image must resume to the
// uninterrupted run's digest, on one board and two.
func TestResumeAcceptsQueueLayoutPools(t *testing.T) {
	g := testGraph(t)
	for _, nb := range []int{1, 2} {
		want := digestResult(runEngine(t, g, arrayConfig(nb)))
		s := midRunCut(t, nb)
		r := rand.New(rand.NewSource(int64(nb)))
		legacy := func(p *UnitPoolState) {
			for i := range p.Units {
				u := &p.Units[i]
				if u.BusyUntil == 0 && s.Sim.Now > 0 {
					u.BusyUntil = sim.Time(1 + r.Int63n(int64(s.Sim.Now)))
				}
				u.Served = uint64(r.Intn(1000))
				u.Waited = s.Sim.Now / 3
				u.BusyTotal = u.BusyUntil / 2
			}
			r.Shuffle(len(p.Units), func(i, j int) { p.Units[i], p.Units[j] = p.Units[j], p.Units[i] })
		}
		for b := range s.Boards {
			img := &s.Boards[b]
			tiers := []*TierState{&img.Board.Tier}
			for i := range img.Chips {
				tiers = append(tiers, &img.Chips[i].Tier)
			}
			for i := range img.Chans {
				tiers = append(tiers, &img.Chans[i].Tier)
			}
			for _, ts := range tiers {
				legacy(&ts.Updater)
				legacy(&ts.Guider)
			}
		}
		res, err := resumeContext(context.Background(), g, s, Observers{})
		if err != nil {
			t.Fatalf("boards=%d: resume: %v", nb, err)
		}
		if got := digestResult(res); got != want {
			t.Fatalf("boards=%d: queue-layout resume diverged:\n got %s\nwant %s", nb, got, want)
		}
	}
}

// TestResumeRejectsHostileEvents edits one pending event of a mid-run cut
// at a time — a channel index past the end, an unknown kind, a handler
// index past the table, a walk two events carry, a board guide routing to a
// block past the partitioning, a channel guide tagging a range past the
// ranges, a read-back page with no read-back walks, an event before the
// clock, and on the flash side an event on a free op, a live op missing one
// of its parts, a completion of unknown kind, a channel tick as a
// completion and a completion naming a handler past the table — or the
// records events carry: a walk-carrying event or a roving batch completion
// with no record, a record on a tick, a record of two walks, a truncated
// stream, trailing stream bytes, an empty roving batch, and a walk appended
// to a PWB store. On two boards it edits a fabric transfer: empty, bound
// for a board past the array, or holding a walk bound for a partition past
// the end. It requires ResumeEngine to refuse each. (Case names call the
// record an event carries its payload.) An accepted image would
// index out of range, panic on the kind, run a timeline out of order, hand
// two tiers one walk or leave a walk that never finishes, so an accepted
// one is not run.
func TestResumeRejectsHostileEvents(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	// Cut 30 holds a pending board guide and channel guide for the cases
	// below to edit, and roving batches in flight.
	cut := interruptCore(t, g, rc, 30)
	fabricCut := carryingCut(t, 2)
	for _, c := range []*Snapshot{cut, fabricCut} {
		if _, err := ResumeEngine(g, cloneSnapshot(t, c), Observers{}); err != nil {
			t.Fatalf("unmodified cut rejected: %v", err)
		}
	}
	part, err := partition.Partition(g, rc.PartCfg)
	if err != nil {
		t.Fatal(err)
	}
	// index returns the index of the first pending event aimed at target
	// whose kind want accepts, and find the event.
	index := func(t *testing.T, s *Snapshot, target int32, want func(kind uint16) bool) int {
		for i, ev := range s.Sim.Events {
			if ev.Target == target && want(ev.Kind) {
				return i
			}
		}
		t.Fatal("cut has no pending event of the wanted kind")
		return -1
	}
	find := func(t *testing.T, s *Snapshot, target int32, want func(kind uint16) bool) *sim.SavedEvent {
		return &s.Sim.Events[index(t, s, target, want)]
	}
	// batchOp returns board 0's first live flash op whose completion hands
	// on a roving batch.
	batchOp := func(t *testing.T, s *Snapshot) int {
		for i, op := range s.Boards[0].Flash.Ops {
			if op.Remaining > 0 && op.Done.Kind == evChanBatch {
				return i
			}
		}
		t.Fatal("cut has no roving batch in flight")
		return -1
	}
	// editRecords rewrites the cut's record stream through its split.
	editRecords := func(t *testing.T, s *Snapshot, edit func(rs *records)) {
		rs := mustSplit(t, s)
		edit(rs)
		rs.join(s)
	}
	// twoWalks packs the walk a record carries twice.
	twoWalks := func(t *testing.T, rec []byte) []byte {
		u := unpacker{be: new(boardEngine)}
		ws := u.walks(rec)
		if u.err != nil || len(ws) != 1 {
			t.Fatalf("record holds %d walks (%v)", len(ws), u.err)
		}
		return new(packer).walks(u.be.wtab, append(ws, ws[0]))
	}
	anyKind := func(uint16) bool { return true }
	carriesWalk := func(k uint16) bool { return eventPayload[k]&payWalk != 0 }
	tick := func(k uint16) bool { return k == evChanTick }
	boardGuide := func(k uint16) bool { return k == evBoardGuided || k == evBoardPortDone }
	chanGuide := func(k uint16) bool { return k == evChanGuided }
	arrival := func(k uint16) bool { return k == evFabricArrive }
	cases := map[string]func(t *testing.T, s *Snapshot){
		"channel tick past the end": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), tick).B = 1 << 20
		},
		"unknown kind": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), anyKind).Kind = 999
		},
		"walk carried twice": func(t *testing.T, s *Snapshot) {
			dupEvent(t, s, index(t, s, targetBoard(0), carriesWalk))
		},
		"walk-carrying event with no payload": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) { rs.events[index(t, s, targetBoard(0), carriesWalk)] = nil })
		},
		"roving batch completion with no payload": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) { rs.ops[0][batchOp(t, s)] = nil })
		},
		"payload on a tick": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				rs.events[index(t, s, targetBoard(0), tick)] = rs.events[index(t, s, targetBoard(0), carriesWalk)]
			})
		},
		"payload of two walks": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				i := index(t, s, targetBoard(0), carriesWalk)
				rs.events[i] = twoWalks(t, rs.events[i])
			})
		},
		"malformed payload": func(t *testing.T, s *Snapshot) {
			s.Carried = s.Carried[:len(s.Carried)-1]
		},
		"trailing record bytes": func(t *testing.T, s *Snapshot) {
			s.Carried = append(s.Carried, 0)
		},
		"empty roving batch": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) { rs.ops[0][batchOp(t, s)] = appendWalks(nil, nil, nil) })
		},
		"walk appended to a PWB store": func(t *testing.T, s *Snapshot) {
			appendPWBWalk(t, &s.Boards[0])
		},
		"board guide past the partitioning": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), boardGuide).C = packC(int32(part.NumBlocks()), -1)
		},
		"channel guide past the ranges": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), chanGuide).C = packC(int32(len(part.Ranges)), -1)
		},
		"read-back page with no walks": func(t *testing.T, s *Snapshot) {
			if s.Boards[0].SwitchWalks != nil {
				t.Fatal("cut has a read-back in flight")
			}
			s.Sim.Seq++
			s.Sim.Events = append(s.Sim.Events, sim.SavedEvent{At: s.Sim.Now, Seq: s.Sim.Seq, Target: targetBoard(0), Kind: evSwitchPage})
		},
		"event before the clock": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), tick).At = s.Sim.Now - 1
		},
		"flash event on a free op": func(t *testing.T, s *Snapshot) {
			for i, op := range s.Boards[0].Flash.Ops {
				if op.Remaining == 0 {
					find(t, s, targetSSD(0), anyKind).A = int32(i)
					return
				}
			}
			t.Fatal("cut has no free flash op")
		},
		"flash op missing a part": func(t *testing.T, s *Snapshot) {
			i := slices.IndexFunc(s.Sim.Events, func(ev sim.SavedEvent) bool { return ev.Target == targetSSD(0) })
			if i < 0 {
				t.Fatal("cut has no pending flash event")
			}
			s.Sim.Events = slices.Delete(s.Sim.Events, i, i+1)
		},
		"flash completion of unknown kind": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				rs.ops[0][batchOp(t, s)] = nil
				s.Boards[0].Flash.Ops[batchOp(t, s)].Done.Kind = 999
			})
		},
		"channel tick as a flash completion": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				i := batchOp(t, s)
				rs.ops[0][i] = nil
				d := &s.Boards[0].Flash.Ops[i].Done
				*d = sim.Stored{Target: d.Target, Kind: evChanTick}
			})
		},
		"flash completion past the handler table": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				i := batchOp(t, s)
				rs.ops[0][i] = nil
				s.Boards[0].Flash.Ops[i].Done.Target = int32(1 + 2*len(s.Boards))
			})
		},
		"event past the handler table": func(t *testing.T, s *Snapshot) {
			find(t, s, targetBoard(0), tick).Target = int32(1 + 2*len(s.Boards))
		},
	}
	fabricCases := map[string]func(t *testing.T, s *Snapshot){
		"empty fabric transfer": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				rs.events[index(t, s, targetDriver, arrival)] = appendFabricWalks([]byte{0}, nil)
			})
		},
		"fabric transfer past the array": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				editTransfer(t, &rs.events[index(t, s, targetDriver, arrival)], func(fb *fabricBatch) { fb.dst = int32(len(s.Boards)) })
			})
		},
		"fabric walk past the partitions": func(t *testing.T, s *Snapshot) {
			editRecords(t, s, func(rs *records) {
				editTransfer(t, &rs.events[index(t, s, targetDriver, arrival)], func(fb *fabricBatch) { fb.walks[0].p = int32(part.NumPartitions) })
			})
		},
	}
	for _, set := range []struct {
		cut   *Snapshot
		cases map[string]func(t *testing.T, s *Snapshot)
	}{{cut, cases}, {fabricCut, fabricCases}} {
		for name, mutate := range set.cases {
			t.Run(name, func(t *testing.T) {
				s := cloneSnapshot(t, set.cut)
				mutate(t, s)
				if _, err := ResumeEngine(g, s, Observers{}); err == nil {
					t.Fatal("hostile event accepted")
				}
			})
		}
	}
}

// editPWB repacks the first non-empty PWB store of img with the walks
// edit returns for its walks.
func editPWB(t testing.TB, img *BoardImage, edit func(ws []int32) []int32) {
	t.Helper()
	for b, rec := range img.PWB {
		if rec != nil {
			u := unpacker{be: new(boardEngine)}
			ws := u.walks(rec)
			if u.err != nil {
				t.Fatal(u.err)
			}
			img.PWB[b] = new(packer).walks(u.be.wtab, edit(ws))
			return
		}
	}
	t.Fatal("cut has no walk in a PWB store")
}

// appendPWBWalk appends a copy of the first walk of the first non-empty
// PWB store of img to that store.
func appendPWBWalk(t testing.TB, img *BoardImage) {
	editPWB(t, img, func(ws []int32) []int32 { return append(ws, ws[0]) })
}

// editTransfer rewrites the fabric transfer record rec.
func editTransfer(t testing.TB, rec *[]byte, edit func(fb *fabricBatch)) {
	t.Helper()
	r := recReader{b: *rec}
	fb := r.fabricBatch()
	if err := r.done(); err != nil || len(fb.walks) == 0 {
		t.Fatalf("transfer holds %d walks (%v)", len(fb.walks), err)
	}
	edit(&fb)
	*rec = appendFabricBatch(nil, &fb)
}

// dupEvent appends a copy of pending event i, under a fresh sequence
// number, with a copy of the record it carries at the end of the events'
// records.
func dupEvent(t testing.TB, s *Snapshot, i int) {
	t.Helper()
	rs := mustSplit(t, s)
	ev := s.Sim.Events[i]
	s.Sim.Seq++
	ev.Seq = s.Sim.Seq
	s.Sim.Events = append(s.Sim.Events, ev)
	rs.events = append(rs.events, rs.events[i])
	rs.join(s)
}

// wideWalk is a packed walk record's fields at the widths the record
// encodes them, so a test can write values no wstate can hold.
type wideWalk struct {
	src, cur, hop        uint64
	denseBlock, rangeTag int64
	denseEdge            uint64
	prev                 uint64 // the previous vertex plus one, 0 for noPrev
	rng                  [4]uint64
}

func widen(st *wstate) wideWalk {
	return wideWalk{
		src: uint64(st.w.Src), cur: uint64(st.w.Cur), hop: uint64(st.w.Hop),
		denseBlock: int64(st.denseBlock), rangeTag: int64(st.rangeTag),
		denseEdge: st.denseEdge, prev: uint64(st.prev + 1), rng: st.rng.State(),
	}
}

// appendTo encodes w in appendWalk's field order.
func (w *wideWalk) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, w.src)
	b = binary.AppendUvarint(b, w.cur)
	b = binary.AppendUvarint(b, w.hop)
	b = binary.AppendVarint(b, w.denseBlock)
	b = binary.AppendUvarint(b, w.denseEdge)
	b = binary.AppendVarint(b, w.rangeTag)
	b = binary.AppendUvarint(b, w.prev)
	for _, x := range w.rng {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// editFirstPWBWalk rewrites the first walk of the first non-empty PWB
// store of img with edit and repacks the store.
func editFirstPWBWalk(t testing.TB, img *BoardImage, edit func(w *wideWalk)) {
	t.Helper()
	for b, rec := range img.PWB {
		if rec == nil {
			continue
		}
		u := unpacker{be: new(boardEngine)}
		ws := u.walks(rec)
		if u.err != nil {
			t.Fatal(u.err)
		}
		out := binary.AppendUvarint(nil, uint64(len(ws)))
		for i, w := range ws {
			st := u.be.walk(w)
			wide := widen(st)
			if got := wide.appendTo(nil); !bytes.Equal(got, appendWalk(nil, st)) {
				t.Fatalf("wideWalk packs %x, appendWalk %x", got, appendWalk(nil, st))
			}
			if i == 0 {
				edit(&wide)
			}
			out = wide.appendTo(out)
		}
		img.PWB[b] = out
		return
	}
	t.Fatal("cut has no walk in a PWB store")
}

// TestResumeRejectsHostileWalks edits one parked walk of the golden
// workload's cut 20 to values no run could hold — a vertex past the graph,
// a pre-walked edge past its vertex's degree, no hops left outside a
// terminal update, more hops than the budget, a dense block past the
// partitioning, a previous vertex or range tag out of range — and requires
// ResumeEngine to refuse each. The range checks know the graph, so the
// codec decodes these; accepted, the first two panic with an index out of
// range once the run resumes, and the others finish a different run.
//
// The IDs and tags past their in-memory widths must be refused by the
// codec itself: narrowed, 2^32+1 is vertex 1 and 2^32 block 0, which the
// range checks would pass, and a previous vertex of 2^32-1 is noPrev.
func TestResumeRejectsHostileWalks(t *testing.T) {
	g := testGraph(t)
	cut := interruptCore(t, g, goldenConfig(), 20)
	if _, err := ResumeEngine(g, cloneSnapshot(t, cut), Observers{}); err != nil {
		t.Fatalf("unmodified cut rejected: %v", err)
	}
	cases := map[string]func(w *wideWalk){
		"cur past the graph":         func(w *wideWalk) { w.cur = 1 << 40 },
		"dense edge past the degree": func(w *wideWalk) { w.denseBlock, w.denseEdge = 0, 1<<40 },
		"no hops left":               func(w *wideWalk) { w.hop = 0 },
		"hops past the budget":       func(w *wideWalk) { w.hop = 1 << 30 },
		"dense block past the end":   func(w *wideWalk) { w.denseBlock = 1 << 30 },
		"src past the graph":         func(w *wideWalk) { w.src = g.NumVertices() },
		"prev past the graph":        func(w *wideWalk) { w.prev = g.NumVertices() + 1 },
		"range tag past the end":     func(w *wideWalk) { w.rangeTag = 1 << 20 },
		"src of 2^32+1":              func(w *wideWalk) { w.src = 1<<32 + 1 },
		"cur of 2^32+1":              func(w *wideWalk) { w.cur = 1<<32 + 1 },
		"prev of 2^32+1":             func(w *wideWalk) { w.prev = 1<<32 + 2 },
		"src of 2^32-1":              func(w *wideWalk) { w.src = 1<<32 - 1 },
		"cur of 2^32-1":              func(w *wideWalk) { w.cur = 1<<32 - 1 },
		"prev of 2^32-1":             func(w *wideWalk) { w.prev = 1 << 32 },
		"dense block of 2^32":        func(w *wideWalk) { w.denseBlock = 1 << 32 },
		"range tag of 2^32+1":        func(w *wideWalk) { w.rangeTag = 1<<32 + 1 },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			editFirstPWBWalk(t, &s.Boards[0], edit)
			if _, err := ResumeEngine(g, s, Observers{}); err == nil {
				t.Fatal("hostile walk accepted")
			}
		})
	}
}
