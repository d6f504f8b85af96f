// Package flash models the SSD's storage back end with the timing structure
// that drives the paper's results: per-plane page read/program latency, the
// per-channel ONFI bus as a serializing resource, and the PCIe link to the
// host. Geometry and latencies default to Tables I and III.
//
// Three data paths are modelled, matching the three consumers:
//
//   - Chip-local: a chip-level accelerator reads pages from its own planes
//     into its subgraph buffer. No channel-bus time — this is the data
//     movement FlashWalker eliminates.
//   - Channel: data moves between a chip and the channel-/board-level
//     accelerators, paying plane latency plus the channel bus transfer.
//   - Host: data additionally crosses the PCIe link (GraphWalker's path).
package flash

import (
	"fmt"

	"flashwalker/internal/fault"
	"flashwalker/internal/metrics"
	"flashwalker/internal/sim"
)

// Config describes SSD geometry and timing (Tables I & III).
type Config struct {
	Channels        int
	ChipsPerChannel int
	DiesPerChip     int
	PlanesPerDie    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageBytes       int64

	ReadLatency    sim.Time // page sense time (35 us)
	ProgramLatency sim.Time // page program time (350 us)
	EraseLatency   sim.Time // block erase (2 ms)

	ChannelBytesPerSec int64 // ONFI NV-DDR2 (333 MB/s)
	PCIeBytesPerSec    int64 // host link (1 GB/s x 4 lanes)
}

// Default returns the configuration of Tables I and III.
func Default() Config {
	return Config{
		Channels:           32,
		ChipsPerChannel:    4,
		DiesPerChip:        2,
		PlanesPerDie:       4,
		BlocksPerPlane:     2048,
		PagesPerBlock:      64,
		PageBytes:          4096,
		ReadLatency:        35 * sim.Microsecond,
		ProgramLatency:     350 * sim.Microsecond,
		EraseLatency:       2 * sim.Millisecond,
		ChannelBytesPerSec: 333_000_000,
		PCIeBytesPerSec:    4_000_000_000,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0, c.ChipsPerChannel <= 0, c.DiesPerChip <= 0, c.PlanesPerDie <= 0:
		return fmt.Errorf("flash: non-positive geometry %+v", c)
	case c.PageBytes <= 0:
		return fmt.Errorf("flash: non-positive page size")
	case c.ReadLatency <= 0 || c.ProgramLatency <= 0:
		return fmt.Errorf("flash: non-positive latency")
	case c.ChannelBytesPerSec <= 0 || c.PCIeBytesPerSec <= 0:
		return fmt.Errorf("flash: non-positive bandwidth")
	}
	return nil
}

// NumChips reports the total chip count.
func (c Config) NumChips() int { return c.Channels * c.ChipsPerChannel }

// PlanesPerChip reports planes per chip.
func (c Config) PlanesPerChip() int { return c.DiesPerChip * c.PlanesPerDie }

// CapacityBytes reports the total flash capacity.
func (c Config) CapacityBytes() int64 {
	return int64(c.NumChips()) * int64(c.PlanesPerChip()) *
		int64(c.BlocksPerPlane) * int64(c.PagesPerBlock) * c.PageBytes
}

// MaxChannelBW reports the theoretical aggregate channel bandwidth
// (Figure 8's 10.4 GB/s line for 32 channels at 333 MB/s).
func (c Config) MaxChannelBW() float64 {
	return float64(c.Channels) * float64(c.ChannelBytesPerSec)
}

// MaxReadBW reports the theoretical aggregate plane read throughput
// (Figure 8's 55.8 GB/s line: planes × page / readLatency).
func (c Config) MaxReadBW() float64 {
	planes := float64(c.NumChips() * c.PlanesPerChip())
	return planes * float64(c.PageBytes) / c.ReadLatency.Seconds()
}

// Counters accumulates traffic.
type Counters struct {
	ReadPages    uint64
	ProgramPages uint64
	ErasedBlocks uint64
	ReadBytes    int64 // bytes sensed out of flash arrays
	WriteBytes   int64 // bytes programmed into flash arrays
	ChannelBytes int64 // bytes crossing any channel bus
	HostBytes    int64 // bytes crossing PCIe
}

// SSD is the simulated device.
type SSD struct {
	Eng *sim.Engine
	Cfg Config

	channels []*Channel
	pcie     *sim.Queue

	Counters Counters

	// Pooled multi-part operation records; freeOp heads the free list.
	ops    []flashOp
	freeOp int32

	// faults, when non-nil, injects read errors, plane-busy stalls, and
	// chip degradation into the sense path. nil (the default) keeps the
	// fault-free code path bit-identical to builds before injection
	// existed; an attached injector with all rates at zero draws nothing
	// and is likewise timing-identical (see package fault).
	faults *fault.Injector

	// Optional time series, attached by the harness for Figure 8.
	ReadTS    *metrics.TimeSeries
	WriteTS   *metrics.TimeSeries
	ChannelTS *metrics.TimeSeries
}

// Channel is one flash channel: a serializing bus plus chips.
type Channel struct {
	ID    int
	Bus   *sim.Queue
	Chips []*Chip
}

// Chip is one flash chip; its planes serve page operations independently.
type Chip struct {
	Channel *Channel
	ID      int // global chip index
	planes  []*sim.Queue
	next    int // round-robin plane cursor
}

// New builds an SSD on the engine.
func New(eng *sim.Engine, cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SSD{Eng: eng, Cfg: cfg, pcie: sim.NewQueue(eng), freeOp: -1}
	for ch := 0; ch < cfg.Channels; ch++ {
		c := &Channel{ID: ch, Bus: sim.NewQueue(eng)}
		for k := 0; k < cfg.ChipsPerChannel; k++ {
			chip := &Chip{
				Channel: c,
				ID:      ch*cfg.ChipsPerChannel + k,
				planes:  make([]*sim.Queue, cfg.PlanesPerChip()),
			}
			for p := range chip.planes {
				chip.planes[p] = sim.NewQueue(eng)
			}
			c.Chips = append(c.Chips, chip)
		}
		s.channels = append(s.channels, c)
	}
	return s, nil
}

// Channel returns channel ch.
func (s *SSD) Channel(ch int) *Channel { return s.channels[ch] }

// Chip returns the chip with global index idx.
func (s *SSD) Chip(idx int) *Chip {
	return s.channels[idx/s.Cfg.ChipsPerChannel].Chips[idx%s.Cfg.ChipsPerChannel]
}

// NumChips reports the chip count.
func (s *SSD) NumChips() int { return s.Cfg.NumChips() }

// AttachFaults installs a fault injector on the sense path. Call before the
// simulation starts; nil detaches. The injector's draws happen in event
// order, so a given (workload seed, fault seed) pair replays exactly.
func (s *SSD) AttachFaults(inj *fault.Injector) { s.faults = inj }

// Faults returns the attached injector (nil when fault-free).
func (s *SSD) Faults() *fault.Injector { return s.faults }

func (s *SSD) recordRead(at sim.Time, bytes int64) {
	s.Counters.ReadPages++
	s.Counters.ReadBytes += bytes
	if s.ReadTS != nil {
		s.ReadTS.Add(at, float64(bytes))
	}
}

func (s *SSD) recordWrite(at sim.Time, bytes int64) {
	s.Counters.ProgramPages++
	s.Counters.WriteBytes += bytes
	if s.WriteTS != nil {
		s.WriteTS.Add(at, float64(bytes))
	}
}

func (s *SSD) recordChannel(at sim.Time, bytes int64) {
	s.Counters.ChannelBytes += bytes
	if s.ChannelTS != nil {
		s.ChannelTS.Add(at, float64(bytes))
	}
}

// --- Typed-event plumbing. ---
//
// Every data-path operation below is a multi-part operation: n per-page (or
// per-payload) timelines that each end by accounting traffic and notifying a
// shared completion. The per-part timelines are typed sim events targeting
// the SSD itself, and the caller's completion — a typed event, or the zero
// event for none — waits in a pooled op record addressed by index, so
// steady-state flash traffic allocates nothing.

// Flash event kinds (private to the SSD's HandleEvent).
const (
	fkReadDone    uint16 = iota // page sensed on a plane (local path / FTL)
	fkSensedChan                // page sensed, next crosses the channel bus
	fkChanPage                  // page crossed the bus to channel/board
	fkSensedHost                // page sensed, bound for the host
	fkChanHost                  // page crossed the bus, next crosses PCIe
	fkHostPage                  // page reached host memory
	fkProgramDone               // page programmed on a plane
	fkBoardOnChip               // board payload page arrived at the chip
	fkXferChan                  // arbitrary channel-bus payload transferred
	fkXferHost                  // arbitrary PCIe payload transferred
	fkErased                    // block erased
)

// flashOp is one pooled multi-part operation: the completion fires when all
// parts have finished.
type flashOp struct {
	remaining int32
	free      int32 // free-list link
	done      sim.Event
}

// newOp claims a pooled op record for n parts.
func (s *SSD) newOp(n int, done sim.Event) int32 {
	var idx int32
	if s.freeOp >= 0 {
		idx = s.freeOp
		s.freeOp = s.ops[idx].free
	} else {
		s.ops = append(s.ops, flashOp{})
		idx = int32(len(s.ops) - 1)
	}
	s.ops[idx] = flashOp{remaining: int32(n), free: -1, done: done}
	return idx
}

// opPart retires one part of the op; the last part recycles the record and
// delivers the completion inline, inside the final part's event.
func (s *SSD) opPart(idx int32) {
	op := &s.ops[idx]
	op.remaining--
	if op.remaining > 0 {
		return
	}
	done := op.done
	*op = flashOp{free: s.freeOp}
	s.freeOp = idx
	if !done.None() {
		done.Target.HandleEvent(done)
	}
}

// HandleEvent advances the per-part timelines. A = op index, B = global chip
// index (stages that still need the chip), C = payload bytes for arbitrary
// transfers, or plane|attempt<<32 for the sense kinds (the retry path needs
// both to re-acquire the same plane). It is exported only to satisfy
// sim.Handler.
func (s *SSD) HandleEvent(ev sim.Event) {
	now := s.Eng.Now()
	switch ev.Kind {
	case fkReadDone:
		s.recordRead(now, s.Cfg.PageBytes)
		if s.retryRead(now, ev) {
			return
		}
		s.opPart(ev.A)
	case fkSensedChan:
		s.recordRead(now, s.Cfg.PageBytes)
		if s.retryRead(now, ev) {
			return
		}
		chip := s.Chip(int(ev.B))
		xfer := sim.TransferTime(s.Cfg.PageBytes, s.Cfg.ChannelBytesPerSec)
		chip.Channel.Bus.AcquireAfter(now, xfer,
			sim.Event{Target: s, Kind: fkChanPage, A: ev.A})
	case fkChanPage:
		s.recordChannel(now, s.Cfg.PageBytes)
		s.opPart(ev.A)
	case fkSensedHost:
		s.recordRead(now, s.Cfg.PageBytes)
		if s.retryRead(now, ev) {
			return
		}
		chip := s.Chip(int(ev.B))
		xfer := sim.TransferTime(s.Cfg.PageBytes, s.Cfg.ChannelBytesPerSec)
		chip.Channel.Bus.AcquireAfter(now, xfer,
			sim.Event{Target: s, Kind: fkChanHost, A: ev.A})
	case fkChanHost:
		s.recordChannel(now, s.Cfg.PageBytes)
		xfer := sim.TransferTime(s.Cfg.PageBytes, s.Cfg.PCIeBytesPerSec)
		s.pcie.AcquireAfter(now, xfer,
			sim.Event{Target: s, Kind: fkHostPage, A: ev.A})
	case fkHostPage:
		s.Counters.HostBytes += s.Cfg.PageBytes
		s.opPart(ev.A)
	case fkProgramDone:
		s.recordWrite(now, s.Cfg.PageBytes)
		s.opPart(ev.A)
	case fkBoardOnChip:
		s.recordChannel(now, s.Cfg.PageBytes)
		chip := s.Chip(int(ev.B))
		pl := chip.planes[chip.next]
		chip.next = (chip.next + 1) % len(chip.planes)
		pl.AcquireAfter(now, s.Cfg.ProgramLatency,
			sim.Event{Target: s, Kind: fkProgramDone, A: ev.A})
	case fkXferChan:
		s.recordChannel(now, ev.C)
		s.opPart(ev.A)
	case fkXferHost:
		s.Counters.HostBytes += ev.C
		s.opPart(ev.A)
	case fkErased:
		s.Counters.ErasedBlocks++
		s.opPart(ev.A)
	default:
		panic(fmt.Sprintf("flash: unknown event kind %d", ev.Kind))
	}
}

// skip handles the degenerate zero-part case: the completion still fires,
// as an event scheduled at the current time.
func (s *SSD) skip(done sim.Event) {
	if !done.None() {
		s.Eng.ScheduleAfter(0, done)
	}
}

// --- Sense path and fault injection. ---

// senseService returns the plane occupancy for one page sense: ReadLatency
// plus any injected plane-busy stall or degraded-chip penalty.
func (s *SSD) senseService(chipID int) sim.Time {
	lat := s.Cfg.ReadLatency
	if s.faults != nil {
		lat += s.faults.ReadIssueDelay(chipID)
	}
	return lat
}

// sense issues one page sense on the chip's next plane, recording the plane
// index (and attempt 0) in the event payload so a failed sense can retry on
// the same plane.
func (s *SSD) sense(chip *Chip, kind uint16, op int32) {
	p := chip.next
	chip.next = (chip.next + 1) % len(chip.planes)
	chip.planes[p].AcquireEvent(s.senseService(chip.ID),
		sim.Event{Target: s, Kind: kind, A: op, B: int32(chip.ID), C: int64(p)})
}

// retryRead reports whether the sense that just completed failed and was
// rescheduled. On failure the same plane is re-acquired after an exponential
// backoff with the attempt count bumped in the payload; once MaxRetries is
// exhausted the controller recovers the data and the operation proceeds, so
// a fault delays but never loses an operation.
func (s *SSD) retryRead(now sim.Time, ev sim.Event) bool {
	if s.faults == nil {
		return false
	}
	chipID := int(ev.B)
	if !s.faults.ReadFails(chipID) {
		return false
	}
	attempt := int(ev.C >> 32)
	if attempt >= s.faults.MaxRetries() {
		s.faults.RetryExhausted()
		return false
	}
	delay := s.faults.RetryDelay(attempt)
	chip := s.Chip(chipID)
	plane := int(ev.C & 0xffffffff)
	ev.C = int64(plane) | int64(attempt+1)<<32
	chip.planes[plane].AcquireAfter(now+delay, s.senseService(chipID), ev)
	return true
}

// Every operation below takes a typed completion; the zero event means
// none. ReadPagesLocalE and TransferChannelE keep an E suffix only because
// the benchmark harness calls them by these names.

// ReadPagesLocalE reads n pages from the chip's planes into the chip-level
// accelerator. Pages round-robin across planes; each plane senses serially
// at ReadLatency per page. done fires when the last page is available.
// The channel bus is NOT used: this is the in-storage path.
func (s *SSD) ReadPagesLocalE(chip *Chip, n int, done sim.Event) {
	s.senseN(chip, n, fkReadDone, done)
}

// ReadPagesToChannel reads n pages and transfers each over the channel bus
// to the channel-level (or board-level) accelerator. done fires when the
// last page has crossed the bus.
func (s *SSD) ReadPagesToChannel(chip *Chip, n int, done sim.Event) {
	s.senseN(chip, n, fkSensedChan, done)
}

// ReadPagesToHost reads n pages and moves them over the channel bus and the
// PCIe link to the host (the GraphWalker path). done fires when the last
// page reaches host memory.
func (s *SSD) ReadPagesToHost(chip *Chip, n int, done sim.Event) {
	s.senseN(chip, n, fkSensedHost, done)
}

// senseN starts an n-page sense op whose pages continue as kind.
func (s *SSD) senseN(chip *Chip, n int, kind uint16, done sim.Event) {
	if n <= 0 {
		s.skip(done)
		return
	}
	op := s.newOp(n, done)
	for i := 0; i < n; i++ {
		s.sense(chip, kind, op)
	}
}

// ProgramPagesLocal programs n pages on the chip's planes (data already at
// the chip — e.g. a chip-level accelerator flushing its overflow buffer).
func (s *SSD) ProgramPagesLocal(chip *Chip, n int, done sim.Event) {
	if n <= 0 {
		s.skip(done)
		return
	}
	op := s.newOp(n, done)
	for i := 0; i < n; i++ {
		pl := chip.planes[chip.next]
		chip.next = (chip.next + 1) % len(chip.planes)
		pl.AcquireEvent(s.Cfg.ProgramLatency, sim.Event{Target: s, Kind: fkProgramDone, A: op})
	}
}

// ProgramPagesFromBoard moves n pages from the board over the channel bus
// to the chip and programs them (the board flushing overflow / completed /
// foreigner walks to flash, §III-D).
func (s *SSD) ProgramPagesFromBoard(chip *Chip, n int, done sim.Event) {
	if n <= 0 {
		s.skip(done)
		return
	}
	op := s.newOp(n, done)
	xfer := sim.TransferTime(s.Cfg.PageBytes, s.Cfg.ChannelBytesPerSec)
	for i := 0; i < n; i++ {
		chip.Channel.Bus.AcquireEvent(xfer,
			sim.Event{Target: s, Kind: fkBoardOnChip, A: op, B: int32(chip.ID)})
	}
}

// TransferChannelE occupies the chip's channel bus for an arbitrary payload
// (roving walks moving chip->channel or commands/walks moving down). done
// fires when the transfer completes.
func (s *SSD) TransferChannelE(ch *Channel, bytes int64, done sim.Event) {
	s.transfer(ch.Bus, s.Cfg.ChannelBytesPerSec, fkXferChan, bytes, done)
}

// TransferHost occupies the PCIe link for an arbitrary payload.
func (s *SSD) TransferHost(bytes int64, done sim.Event) {
	s.transfer(s.pcie, s.Cfg.PCIeBytesPerSec, fkXferHost, bytes, done)
}

// transfer books one payload on a link; kind accounts its bytes.
func (s *SSD) transfer(link *sim.Queue, bytesPerSec int64, kind uint16, bytes int64, done sim.Event) {
	if bytes <= 0 {
		s.skip(done)
		return
	}
	op := s.newOp(1, done)
	link.AcquireEvent(sim.TransferTime(bytes, bytesPerSec), sim.Event{Target: s, Kind: kind, A: op, C: bytes})
}

// ReadPageAt senses one page on a specific plane of a chip (used by the
// FTL, which tracks physical placement itself). done fires when the page
// is in the plane register; no bus time is charged.
func (s *SSD) ReadPageAt(chipIdx, plane int, done sim.Event) {
	op := s.newOp(1, done)
	s.Chip(chipIdx).planes[plane].AcquireEvent(s.senseService(chipIdx),
		sim.Event{Target: s, Kind: fkReadDone, A: op, B: int32(chipIdx), C: int64(plane)})
}

// ProgramPageAt programs one page on a specific plane of a chip.
func (s *SSD) ProgramPageAt(chipIdx, plane int, done sim.Event) {
	op := s.newOp(1, done)
	s.Chip(chipIdx).planes[plane].AcquireEvent(s.Cfg.ProgramLatency,
		sim.Event{Target: s, Kind: fkProgramDone, A: op})
}

// EraseBlockAt erases one block on a specific plane of a chip.
func (s *SSD) EraseBlockAt(chipIdx, plane int, done sim.Event) {
	op := s.newOp(1, done)
	s.Chip(chipIdx).planes[plane].AcquireEvent(s.Cfg.EraseLatency,
		sim.Event{Target: s, Kind: fkErased, A: op})
}

// PagesFor reports how many pages a payload of the given size occupies.
func (s *SSD) PagesFor(bytes int64) int {
	if bytes <= 0 {
		return 0
	}
	return int((bytes + s.Cfg.PageBytes - 1) / s.Cfg.PageBytes)
}
