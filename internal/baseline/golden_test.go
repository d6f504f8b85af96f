package baseline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"flashwalker/internal/fault"
	"flashwalker/internal/walk"
)

// baselineGolden pins the full simulated timeline of three fixed GraphWalker
// runs: every Result counter, every breakdown entry, and the number of
// events the kernel processed. Any change means the baseline's event chain
// moved (a completion fired in a different order or consumed a different
// sequence number) or a sampling draw shifted. Refactors of the baseline's
// event plumbing must keep every digest bit-identical.
var baselineGolden = []struct {
	name   string
	cfg    func() Config
	spec   walk.Spec
	walks  int
	digest string
}{
	{
		// Overlapped I/O with a walk budget small enough to spill pools.
		name: "prefetch-spill",
		cfg: func() Config {
			c := testCfg()
			c.Prefetch = true
			c.WalkMemBytes = 512
			return c
		},
		spec:  unbiased6(),
		walks: 2000,
		digest: "time=38826233 started=2000 completed=1685 dead=315 hops=10384 " +
			"loads=335 blockB=1372160 spills=5539 spillB=173180 walkLoadB=173180 iter=297 prefetch=289 " +
			"flash=[read=608 prog=5539 erased=0 readB=2490368 writeB=22687744 chanB=25178112 hostB=25178112] " +
			"faults=[err=0 retry=0 exhausted=0 busy=0 stall=0 backoff=0 degraded=0] " +
			"breakdown=[walk I/O=30547936 load graph=29855810 update walks=155760] events=18739",
	},
	{
		// The strictly serial load-then-update loop under memory pressure.
		name: "serial",
		cfg: func() Config {
			c := testCfg()
			c.MemoryBytes = 8 << 10
			return c
		},
		spec:  unbiased6(),
		walks: 2000,
		digest: "time=19098198 started=2000 completed=1667 dead=333 hops=10346 " +
			"loads=309 blockB=1265664 spills=83 spillB=87240 walkLoadB=87240 iter=309 prefetch=0 " +
			"flash=[read=392 prog=83 erased=0 readB=1605632 writeB=339968 chanB=1945600 hostB=1945600] " +
			"faults=[err=0 retry=0 exhausted=0 busy=0 stall=0 backoff=0 degraded=0] " +
			"breakdown=[walk I/O=4095884 load graph=14932116 update walks=155190] events=1735",
	},
	{
		// Second-order walks on an SSD with read errors, plane-busy stalls
		// and chip degradation.
		name: "faulty-second-order",
		cfg: func() Config {
			c := testCfg()
			c.Prefetch = true
			c.MemoryBytes = 8 << 10
			c.Faults = fault.Default()
			c.Faults.ReadErrorRate = 0.1
			c.Faults.PlaneBusyRate = 0.1
			c.Faults.DegradeAfterErrors = 4
			return c
		},
		spec:  walk.Spec{Kind: walk.SecondOrder, Length: 8, P: 0.5, Q: 2},
		walks: 1000,
		digest: "time=18549851 started=1000 completed=803 dead=197 hops=6678 " +
			"loads=495 blockB=2027520 spills=0 spillB=0 walkLoadB=0 iter=379 prefetch=375 " +
			"flash=[read=541 prog=0 erased=0 readB=2215936 writeB=0 chanB=2027520 hostB=2027520] " +
			"faults=[err=46 retry=46 exhausted=0 busy=51 stall=1275000 backoff=530000 degraded=6] " +
			"breakdown=[load graph=34954176 update walks=100170] events=1911",
	},
}

func baselineDigest(res *Result, events uint64) string {
	var bd []string
	for _, l := range res.Breakdown.Labels() {
		bd = append(bd, fmt.Sprintf("%s=%d", l, res.Breakdown.Get(l)))
	}
	f, fc := res.Flash, res.Faults
	return fmt.Sprintf("time=%d started=%d completed=%d dead=%d hops=%d "+
		"loads=%d blockB=%d spills=%d spillB=%d walkLoadB=%d iter=%d prefetch=%d "+
		"flash=[read=%d prog=%d erased=%d readB=%d writeB=%d chanB=%d hostB=%d] "+
		"faults=[err=%d retry=%d exhausted=%d busy=%d stall=%d backoff=%d degraded=%d] "+
		"breakdown=[%s] events=%d",
		res.Time, res.Started, res.Completed, res.DeadEnded, res.Hops,
		res.BlockLoads, res.BlockBytes, res.WalkSpills, res.WalkSpillBytes, res.WalkLoadBytes,
		res.Iterations, res.Prefetches,
		f.ReadPages, f.ProgramPages, f.ErasedBlocks, f.ReadBytes, f.WriteBytes, f.ChannelBytes, f.HostBytes,
		fc.ReadErrors, fc.Retries, fc.RetriesExhausted, fc.PlaneBusyStalls, fc.StallTime, fc.BackoffTime, fc.DegradedChips,
		strings.Join(bd, " "), events)
}

// TestBaselineGoldenDigest pins the baseline's simulated timeline on three
// workloads, including the kernel's final processed-event count (read from
// the run's last Progress report).
func TestBaselineGoldenDigest(t *testing.T) {
	g := rmat(t)
	for _, tc := range baselineGolden {
		t.Run(tc.name, func(t *testing.T) {
			var last Progress
			cfg := tc.cfg()
			cfg.OnProgress = func(p Progress) { last = p }
			e, err := NewWithSSD(g, cfg, smallSSD(), tc.spec, tc.walks, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := baselineDigest(res, last.Events); got != tc.digest {
				t.Fatalf("baseline golden digest changed:\n got %s\nwant %s", got, tc.digest)
			}
		})
	}
}
