// Package fault is the deterministic fault-injection subsystem for the
// simulated flash stack. Real SSDs fail in three characteristic ways the
// paper's idealized model ignores: a page sense returns an ECC-uncorrectable
// read that must be retried, a plane reports busy and delays the sense, and
// a worn chip degrades permanently, serving every subsequent read slowly and
// with an elevated error rate.
//
// The injector draws every fault decision from its own RNG stream, seeded by
// Config.Seed and never shared with the walk RNG. Two consequences, both
// load-bearing for the test layer:
//
//   - A run with all rates at zero makes no draws at all (rng.Bool(0)
//     returns without consuming state) and injects no latency, so it is
//     bit-identical to a run with no injector attached. The golden-seed
//     digest therefore holds with faults disabled AND with a zero-rate
//     injector attached.
//   - Faults perturb only the event timeline, never a walk's trajectory:
//     each walk carries its own RNG stream (see internal/core), so clean and
//     faulty runs complete exactly the same walks in the same number of
//     hops. Faults change when walks finish, never whether.
//
// Fault decisions are drawn in simulated-event order, which the event kernel
// makes deterministic, so the same (seed, config) pair reproduces the same
// fault sequence — and the same counters — on every run.
package fault

import (
	"fmt"
	"math"

	"flashwalker/internal/errs"
	"flashwalker/internal/rng"
	"flashwalker/internal/sim"
)

// Config parameterizes the injector. The zero value is a valid, disabled
// configuration.
type Config struct {
	// Enabled turns injection on. When false the rest of the fields are
	// ignored and the engines never construct an injector.
	Enabled bool `json:"enabled"`
	// Seed seeds the dedicated fault RNG stream. Independent from the
	// simulation seed: the same workload can be replayed under different
	// fault sequences and vice versa.
	Seed uint64 `json:"seed"`

	// ReadErrorRate is the per-sense probability that a page read fails
	// and must be retried (ECC-uncorrectable).
	ReadErrorRate float64 `json:"read_error_rate"`
	// PlaneBusyRate is the per-sense probability that the target plane is
	// busy (e.g. background media management) and the sense stalls.
	PlaneBusyRate float64 `json:"plane_busy_rate"`
	// PlaneBusyTime is the extra plane occupancy charged per busy stall.
	PlaneBusyTime sim.Time `json:"plane_busy_time"`

	// MaxRetries bounds the re-senses of a failing page. Retry i waits
	// RetryBackoff << i before re-acquiring the same plane (exponential
	// backoff). After MaxRetries the data is taken as recovered by the
	// controller's heroics and the operation proceeds: a fault may never
	// lose a walk.
	MaxRetries int `json:"max_retries"`
	// RetryBackoff is the base backoff before the first retry.
	RetryBackoff sim.Time `json:"retry_backoff"`

	// DegradeAfterErrors permanently degrades a chip once it has served
	// this many read errors (0 = chips never degrade). Degradation is
	// sticky: every later sense on the chip pays DegradedReadPenalty, and
	// the scheduler is told so it can fail the chip's hot subgraphs over
	// to the channel accelerator.
	DegradeAfterErrors int `json:"degrade_after_errors"`
	// DegradedReadPenalty is the extra sense latency on a degraded chip.
	DegradedReadPenalty sim.Time `json:"degraded_read_penalty"`

	// KillBoardAt, when positive, fail-stops one whole board of a
	// multi-board array at that simulated time: the board's shard is
	// re-placed onto the survivors and its buffered walks are evacuated
	// over the inter-board fabric (see internal/core's array layer).
	// Independent of Enabled — a kill can be injected without rate-based
	// injection — and rejected by single-board runs. Zero disables it.
	KillBoardAt sim.Time `json:"kill_board_at,omitempty"`
	// KillBoard is the board index KillBoardAt applies to.
	KillBoard int `json:"kill_board,omitempty"`
}

// Default returns a representative enabled fault profile: 2% read errors,
// 5% plane-busy stalls, bounded retry with 10 us base backoff, and sticky
// chip degradation after 64 errors.
func Default() Config {
	return Config{
		Enabled:             true,
		Seed:                0xFA17,
		ReadErrorRate:       0.02,
		PlaneBusyRate:       0.05,
		PlaneBusyTime:       25 * sim.Microsecond,
		MaxRetries:          4,
		RetryBackoff:        10 * sim.Microsecond,
		DegradeAfterErrors:  64,
		DegradedReadPenalty: 35 * sim.Microsecond,
	}
}

// maxRetriesCap bounds MaxRetries so the exponential backoff shift
// (RetryBackoff << attempt) cannot overflow sim.Time.
const maxRetriesCap = 32

// Validate checks the configuration; failures wrap errs.ErrInvalidConfig.
// A disabled zero value validates clean.
func (c Config) Validate() error {
	for _, rate := range []struct {
		name string
		v    float64
	}{
		{"ReadErrorRate", c.ReadErrorRate},
		{"PlaneBusyRate", c.PlaneBusyRate},
	} {
		// The negated comparison also rejects NaN.
		if !(rate.v >= 0 && rate.v <= 1) || math.IsNaN(rate.v) {
			return fmt.Errorf("fault: %s %v outside [0, 1]: %w", rate.name, rate.v, errs.ErrInvalidConfig)
		}
	}
	for _, d := range []struct {
		name string
		v    sim.Time
	}{
		{"PlaneBusyTime", c.PlaneBusyTime},
		{"RetryBackoff", c.RetryBackoff},
		{"DegradedReadPenalty", c.DegradedReadPenalty},
	} {
		if d.v < 0 {
			return fmt.Errorf("fault: negative %s %v: %w", d.name, d.v, errs.ErrInvalidConfig)
		}
	}
	if c.MaxRetries < 0 || c.MaxRetries > maxRetriesCap {
		return fmt.Errorf("fault: MaxRetries %d outside [0, %d]: %w", c.MaxRetries, maxRetriesCap, errs.ErrInvalidConfig)
	}
	if c.DegradeAfterErrors < 0 {
		return fmt.Errorf("fault: negative DegradeAfterErrors %d: %w", c.DegradeAfterErrors, errs.ErrInvalidConfig)
	}
	if c.KillBoardAt < 0 {
		return fmt.Errorf("fault: negative KillBoardAt %v: %w", c.KillBoardAt, errs.ErrInvalidConfig)
	}
	if c.KillBoard < 0 {
		return fmt.Errorf("fault: negative KillBoard %d: %w", c.KillBoard, errs.ErrInvalidConfig)
	}
	return nil
}

// Counters accumulates injected faults and the engine's responses. All
// values are deterministic for a given (workload seed, fault config) pair.
type Counters struct {
	ReadErrors       uint64   // senses that failed and needed a retry decision
	Retries          uint64   // re-senses issued
	RetriesExhausted uint64   // failures that hit MaxRetries and proceeded
	PlaneBusyStalls  uint64   // senses delayed by a busy plane
	StallTime        sim.Time // total plane-busy occupancy injected
	BackoffTime      sim.Time // total retry backoff waited
	DegradedChips    uint64   // chips that crossed DegradeAfterErrors
}

// Injector draws faults for one simulated SSD. It is not safe for
// concurrent use; like the rest of the simulator it runs on the
// single-threaded event loop.
type Injector struct {
	cfg Config
	rng *rng.RNG

	// Counters is updated in place as faults are drawn; read it after (or
	// during) a run for the totals.
	Counters Counters

	// OnDegrade, when non-nil, fires once per chip the moment it crosses
	// DegradeAfterErrors. The core engine hooks this to fail the chip's
	// hot subgraphs over to its channel accelerator.
	OnDegrade func(chip int)

	chipErrors []int
	degraded   []bool
}

// NewInjector builds an injector for numChips chips. The caller should have
// validated cfg; NewInjector trusts it.
func NewInjector(cfg Config, numChips int) *Injector {
	return &Injector{
		cfg:        cfg,
		rng:        rng.New(cfg.Seed),
		chipErrors: make([]int, numChips),
		degraded:   make([]bool, numChips),
	}
}

// Degraded reports whether chip has crossed its error threshold.
func (in *Injector) Degraded(chip int) bool { return in.degraded[chip] }

// MaxRetries reports the retry bound.
func (in *Injector) MaxRetries() int { return in.cfg.MaxRetries }

// ReadIssueDelay returns the extra plane occupancy for one page sense on
// chip: the sticky degradation penalty (no draw) plus, with probability
// PlaneBusyRate, a plane-busy stall (at most one draw).
func (in *Injector) ReadIssueDelay(chip int) sim.Time {
	var d sim.Time
	if in.degraded[chip] {
		d += in.cfg.DegradedReadPenalty
	}
	if in.rng.Bool(in.cfg.PlaneBusyRate) {
		in.Counters.PlaneBusyStalls++
		in.Counters.StallTime += in.cfg.PlaneBusyTime
		d += in.cfg.PlaneBusyTime
	}
	return d
}

// ReadFails draws whether the sense that just completed on chip returned an
// uncorrectable error (at most one draw). A failure counts toward the
// chip's degradation threshold regardless of whether the retry succeeds.
func (in *Injector) ReadFails(chip int) bool {
	if !in.rng.Bool(in.cfg.ReadErrorRate) {
		return false
	}
	in.Counters.ReadErrors++
	in.chipErrors[chip]++
	if in.cfg.DegradeAfterErrors > 0 && !in.degraded[chip] &&
		in.chipErrors[chip] >= in.cfg.DegradeAfterErrors {
		in.degraded[chip] = true
		in.Counters.DegradedChips++
		if in.OnDegrade != nil {
			in.OnDegrade(chip)
		}
	}
	return true
}

// RetryDelay accounts one retry and returns its exponential backoff:
// RetryBackoff << attempt, where attempt counts prior tries of this page.
func (in *Injector) RetryDelay(attempt int) sim.Time {
	d := in.cfg.RetryBackoff << attempt
	in.Counters.Retries++
	in.Counters.BackoffTime += d
	return d
}

// RetryExhausted accounts a failure that hit MaxRetries; the caller
// proceeds with the (recovered) data.
func (in *Injector) RetryExhausted() {
	in.Counters.RetriesExhausted++
}
