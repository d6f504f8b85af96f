package core

import (
	"context"
	"math/rand"
	"testing"

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
func cloneSnapshot(t *testing.T, s *Snapshot) *Snapshot {
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
// channel failed over with no degraded chip, a tier's pending hot blocks
// that no pending preload completion accounts for, a negative score count,
// slot deferrals outside [0, maxLoadDefers], a completed-walk buffer
// outside [0, its flush threshold), and flash walk pages that are negative
// or held by an empty store — and requires an error for each.
// An image that slipped through would index out of range inside resume or
// at the next routed walk, hop or flush, so an accepted one is also run.
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
		"board hot blocks pending without loads": func(img *BoardImage) {
			img.Board.Tier.HotPending = 1 << 30
		},
		"channel hot blocks pending without loads": func(img *BoardImage) { img.Chans[1].Tier.HotPending = 1 },
		"chip hot blocks pending":                  func(img *BoardImage) { img.Chips[0].Tier.HotPending = 1 },
		"negative score pending":                   func(img *BoardImage) { img.ScorePend[0] = -1 << 30 },
		"slot defers past the bound":               func(img *BoardImage) { img.Chips[0].Slots[0].Defers = maxLoadDefers + 1 },
		"negative slot defers":                     func(img *BoardImage) { img.Chips[0].Slots[0].Defers = -1 },
		"chip completed bytes at the threshold": func(img *BoardImage) {
			img.Chips[0].CompletedBytes = rc.Cfg.ChipCompletedBufBytes
		},
		"negative chip completed bytes": func(img *BoardImage) { img.Chips[0].CompletedBytes = -1 },
		"board completed bytes at the threshold": func(img *BoardImage) {
			img.Board.CompletedBytes = rc.Cfg.CompletedBufBytes
		},
		"negative board completed bytes": func(img *BoardImage) { img.Board.CompletedBytes = -1 },
		"negative flash walk pages":      func(img *BoardImage) { img.FLSPages[0] = -1 },
		"flash walk pages with no walks": func(img *BoardImage) {
			for b, rec := range img.FLS {
				if rec == nil {
					img.FLSPages[b] = 1
					return
				}
			}
		},
	}
	if _, err := ResumeEngine(g, cloneSnapshot(t, cut), ResumeOptions{}); err != nil {
		t.Fatalf("unmodified cut rejected: %v", err)
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			mutate(&s.Boards[0])
			e, err := ResumeEngine(g, s, ResumeOptions{})
			if err == nil {
				_, runErr := e.RunContext(context.Background())
				t.Fatalf("hostile board state accepted (run: %v)", runErr)
			}
		})
	}
	for _, p := range []int{-2, part.NumPartitions} {
		s := cloneSnapshot(t, cut)
		s.Boards[0].CurPart = p
		if _, err := ResumeEngine(g, s, ResumeOptions{}); err == nil {
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
		res, err := resumeContext(context.Background(), g, s, ResumeOptions{})
		if err != nil {
			t.Fatalf("boards=%d: resume: %v", nb, err)
		}
		if got := digestResult(res); got != want {
			t.Fatalf("boards=%d: queue-layout resume diverged:\n got %s\nwant %s", nb, got, want)
		}
	}
}

// TestResumeRejectsHostileEvents edits one pending event of a mid-run cut
// at a time — a channel index past the end, an unknown kind, a carried
// walk past the board's Held run or negative, a walk two events carry, a
// carried walk no event names, a board guide routing to a block past the
// partitioning, a channel guide tagging a range past the ranges, an event
// before the clock, and on the flash side a free list past the op pool, an
// event on a free op, a live op missing one of its parts and a completion
// of unknown kind — and requires ResumeEngine to refuse each. An accepted
// image would index out of range, panic on the kind, run a timeline out of
// order, hand two tiers one walk or leave a walk that never finishes, so
// an accepted one is not run.
func TestResumeRejectsHostileEvents(t *testing.T) {
	g := testGraph(t)
	rc := goldenConfig()
	// Cut 30 holds a pending board guide and channel guide for the cases
	// below to edit.
	cut := interruptCore(t, g, rc, 30)
	if _, err := ResumeEngine(g, cloneSnapshot(t, cut), ResumeOptions{}); err != nil {
		t.Fatalf("unmodified cut rejected: %v", err)
	}
	part, err := partition.Partition(g, rc.PartCfg)
	if err != nil {
		t.Fatal(err)
	}
	// find returns the index of the first pending event aimed at target
	// whose kind want accepts.
	find := func(t *testing.T, s *Snapshot, target int32, want func(kind uint16) bool) int {
		for i, ev := range s.Sim.Events {
			if ev.Target == target && want(ev.Kind) {
				return i
			}
		}
		t.Fatal("cut has no pending event of the wanted kind")
		return -1
	}
	anyKind := func(uint16) bool { return true }
	carriesWalk := func(k uint16) bool { return eventPayload[k]&payWalk != 0 }
	tick := func(k uint16) bool { return k == evChanTick }
	boardGuide := func(k uint16) bool { return k == evBoardGuided || k == evBoardPortDone }
	chanGuide := func(k uint16) bool { return k == evChanGuided }
	cases := map[string]func(t *testing.T, s *Snapshot){
		"channel tick past the end": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), tick)].B = 1 << 20
		},
		"unknown kind": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), anyKind)].Kind = 999
		},
		"carried walk past the run": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), carriesWalk)].A = 1 << 30
		},
		"negative carried walk": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), carriesWalk)].A = -1
		},
		"walk carried twice": func(t *testing.T, s *Snapshot) {
			dup := s.Sim.Events[find(t, s, targetBoard(0), carriesWalk)]
			s.Sim.Seq++
			dup.Seq = s.Sim.Seq
			s.Sim.Events = append(s.Sim.Events, dup)
		},
		"carried walk no event names": func(t *testing.T, s *Snapshot) {
			u := unpacker{be: new(boardEngine)}
			ws := u.walks(s.Boards[0].Held)
			if u.err != nil || len(ws) == 0 {
				t.Fatalf("cut carries %d walks (%v)", len(ws), u.err)
			}
			s.Boards[0].Held = new(packer).walks(u.be.wtab, append(ws, ws[0]))
		},
		"board guide past the partitioning": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), boardGuide)].C = packC(int32(part.NumBlocks()), -1)
		},
		"channel guide past the ranges": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), chanGuide)].C = packC(int32(len(part.Ranges)), -1)
		},
		"event before the clock": func(t *testing.T, s *Snapshot) {
			s.Sim.Events[find(t, s, targetBoard(0), tick)].At = s.Sim.Now - 1
		},
		"flash free list past the pool": func(t *testing.T, s *Snapshot) {
			s.Boards[0].Flash.FreeOp = int32(len(s.Boards[0].Flash.Ops))
		},
		"flash event on a free op": func(t *testing.T, s *Snapshot) {
			for i, op := range s.Boards[0].Flash.Ops {
				if op.Remaining == 0 {
					s.Sim.Events[find(t, s, targetSSD(0), anyKind)].A = int32(i)
					return
				}
			}
			t.Fatal("cut has no free flash op")
		},
		"flash op missing a part": func(t *testing.T, s *Snapshot) {
			i := find(t, s, targetSSD(0), anyKind)
			s.Sim.Events = append(s.Sim.Events[:i], s.Sim.Events[i+1:]...)
		},
		"flash completion of unknown kind": func(t *testing.T, s *Snapshot) {
			for i := range s.Boards[0].Flash.Ops {
				if op := &s.Boards[0].Flash.Ops[i]; op.Remaining > 0 && op.HasDone {
					op.Done.Kind = 999
					return
				}
			}
			t.Fatal("cut has no live flash op with a completion")
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			mutate(t, s)
			if _, err := ResumeEngine(g, s, ResumeOptions{}); err == nil {
				t.Fatal("hostile event accepted")
			}
		})
	}
}

// editFirstPWBWalk rewrites the first walk of the first non-empty PWB
// store of img with edit and repacks the store.
func editFirstPWBWalk(t *testing.T, img *BoardImage, edit func(st *wstate)) {
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
		edit(u.be.walk(ws[0]))
		img.PWB[b] = new(packer).walks(u.be.wtab, ws)
		return
	}
	t.Fatal("cut has no walk in a PWB store")
}

// TestResumeRejectsHostileWalks edits one parked walk of the golden
// workload's cut 20 to values no run could hold — a vertex past the graph,
// a pre-walked edge past its vertex's degree, no hops left outside a
// terminal update, more hops than the budget, a dense block past the
// partitioning, a previous vertex or range tag out of range — and requires
// ResumeEngine to refuse each. The codec decodes them all (it knows no
// graph); accepted, the first two panic with an index out of range once
// the run resumes, and the others finish a different run.
func TestResumeRejectsHostileWalks(t *testing.T) {
	g := testGraph(t)
	cut := interruptCore(t, g, goldenConfig(), 20)
	if _, err := ResumeEngine(g, cloneSnapshot(t, cut), ResumeOptions{}); err != nil {
		t.Fatalf("unmodified cut rejected: %v", err)
	}
	cases := map[string]func(st *wstate){
		"cur past the graph":         func(st *wstate) { st.w.Cur = 1 << 40 },
		"dense edge past the degree": func(st *wstate) { st.denseBlock, st.denseEdge = 0, 1<<40 },
		"no hops left":               func(st *wstate) { st.w.Hop = 0 },
		"hops past the budget":       func(st *wstate) { st.w.Hop = 1 << 30 },
		"dense block past the end":   func(st *wstate) { st.denseBlock = 1 << 30 },
		"src past the graph":         func(st *wstate) { st.w.Src = g.NumVertices() },
		"prev past the graph":        func(st *wstate) { st.prev = g.NumVertices() },
		"range tag past the end":     func(st *wstate) { st.rangeTag = 1 << 20 },
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			s := cloneSnapshot(t, cut)
			editFirstPWBWalk(t, &s.Boards[0], edit)
			if _, err := ResumeEngine(g, s, ResumeOptions{}); err == nil {
				t.Fatal("hostile walk accepted")
			}
		})
	}
}
