// Package dram models the SSD's on-board DRAM (Table III: DDR4-1600, one
// channel, 64-bit bus) as a fixed-latency, bandwidth-limited FIFO port.
//
// The board-level accelerator keeps the partition walk buffer, the subgraph
// mapping table and the foreigner buffer in this DRAM, so mapping-table
// searches and walk-buffer traffic contend on the port — the contention the
// paper's walk query cache exists to relieve.
package dram

import (
	"fmt"

	"flashwalker/internal/sim"
)

// Config describes the DRAM device.
type Config struct {
	// AccessLatency is the closed-row random access time (tRCD+tCL+burst at
	// the Table III timings: ~27.5 ns for DDR4-1600 CL22; rounded to 28 ns).
	AccessLatency sim.Time
	// BytesPerSec is the peak transfer rate (DDR4-1600 x64: 12.8 GB/s).
	BytesPerSec int64
	// CapacityBytes is the DRAM size (4 GB in Table III).
	CapacityBytes int64
	// Banks is the number of independently busy banks; accesses stripe
	// round-robin, so small-record traffic (walk buffer writes) overlaps
	// the way a real banked DDR4 device pipelines it. DDR4 has 16 banks;
	// the default models 8 usefully independent ones.
	Banks int
}

// Default returns Table III's DRAM configuration.
func Default() Config {
	return Config{
		AccessLatency: 28 * sim.Nanosecond,
		BytesPerSec:   12_800_000_000,
		CapacityBytes: 4 << 30,
		Banks:         8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.AccessLatency <= 0 || c.BytesPerSec <= 0 || c.CapacityBytes <= 0 {
		return fmt.Errorf("dram: non-positive parameter %+v", c)
	}
	return nil
}

// DRAM is the simulated device.
type DRAM struct {
	Eng   *sim.Engine
	Cfg   Config
	banks []*sim.Queue
	rr    int

	ReadBytes  int64
	WriteBytes int64
	Accesses   uint64
}

// New builds a DRAM model on the engine.
func New(eng *sim.Engine, cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Banks
	if n < 1 {
		n = 1
	}
	d := &DRAM{Eng: eng, Cfg: cfg}
	for i := 0; i < n; i++ {
		d.banks = append(d.banks, sim.NewQueue(eng))
	}
	return d, nil
}

func (d *DRAM) access(bytes int64, done *sim.Event) sim.Time {
	service := d.Cfg.AccessLatency + sim.TransferTime(bytes, d.Cfg.BytesPerSec)
	d.Accesses++
	bank := d.banks[d.rr]
	d.rr = (d.rr + 1) % len(d.banks)
	var ev sim.Event
	if done != nil {
		ev = *done
	}
	return bank.AcquireEvent(service, ev)
}

// Read models reading bytes; done, unless nil, fires at completion. Returns
// the completion time. The completion is a pointer, not a sim.Event value,
// only so the benchmark harness's Read(n, nil) calls keep compiling.
func (d *DRAM) Read(bytes int64, done *sim.Event) sim.Time {
	d.ReadBytes += bytes
	return d.access(bytes, done)
}

// Write models writing bytes; done, unless nil, fires at completion.
func (d *DRAM) Write(bytes int64, done *sim.Event) sim.Time {
	d.WriteBytes += bytes
	return d.access(bytes, done)
}

// Utilization reports the mean bank busy fraction.
func (d *DRAM) Utilization() float64 {
	var u float64
	for _, b := range d.banks {
		u += b.Utilization()
	}
	return u / float64(len(d.banks))
}
