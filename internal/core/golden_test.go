package core

import (
	"fmt"
	"testing"

	"flashwalker/internal/walk"
)

// goldenDigest is the reference digest of a fixed (graph, seed, walk count)
// run. Any change to it means the simulated timeline moved: RNG draw order,
// event ordering, or routing changed somewhere. Refactors must keep it
// bit-identical; a PR that intentionally changes simulated behaviour must
// say so and update this constant.
//
// Intentional update (fault-injection PR): sampling moved from per-tier RNG
// streams to per-walk streams (wstate.rng), and dense pre-walk tags now
// survive foreigner demotion. Both changes make walk trajectories
// independent of event timing — the property the metamorphic fault tests
// rely on — and shifted every draw, so the digest was re-captured. The
// digest must continue to hold with fault injection disabled AND with a
// zero-rate injector attached (TestGoldenDigestZeroRateFaults).
const goldenDigest = "time=896000 started=500 completed=416 dead=84 hops=2564 " +
	"readPages=462 progPages=0 readB=1892352 chanB=278924 " +
	"dramR=39300 dramW=39300 " +
	"qcHit=522 qcMiss=1961 search=7797 range=1556 prewalk=0 " +
	"hotCh=217 hotBd=449 chip=1982 loads=691 reloads=277 " +
	"pwb=0 foreign=496 switches=6"

// goldenConfig is the golden run's workload: the standard small test rig
// with every optimization on, second partition pressure (low per-partition
// block count), and the conservation audit enabled.
func goldenConfig() RunConfig {
	rc := testConfig()
	rc.Cfg.Opts = AllOptions()
	rc.NumWalks = 500
	rc.StartSeed = 11
	rc.Cfg.Seed = 9
	rc.Audit = true
	rc.Spec = walk.Spec{Kind: walk.Unbiased, Length: 6}
	return rc
}

func digestResult(res *Result) string {
	return fmt.Sprintf(
		"time=%d started=%d completed=%d dead=%d hops=%d "+
			"readPages=%d progPages=%d readB=%d chanB=%d "+
			"dramR=%d dramW=%d "+
			"qcHit=%d qcMiss=%d search=%d range=%d prewalk=%d "+
			"hotCh=%d hotBd=%d chip=%d loads=%d reloads=%d "+
			"pwb=%d foreign=%d switches=%d",
		res.Time, res.Started, res.Completed, res.DeadEnded, res.Hops,
		res.Flash.ReadPages, res.Flash.ProgramPages, res.Flash.ReadBytes, res.Flash.ChannelBytes,
		res.DRAMReadBytes, res.DRAMWriteBytes,
		res.QueryCacheHits, res.QueryCacheMisses, res.TableSearchSteps, res.RangeQueries, res.PreWalks,
		res.HotHitsChannel, res.HotHitsBoard, res.ChipUpdates, res.SubgraphLoads, res.SubgraphReloads,
		res.PWBOverflows, res.ForeignerWalks, res.PartitionSwitches)
}

// TestGoldenSeedDigest pins the full simulated timeline of one fixed run.
// The run goes through the same driver as multi-board arrays, on one board
// that never touches the fabric: the array layer added no events, changed
// no ordering, and moved no RNG draw of the single-board timeline.
func TestGoldenSeedDigest(t *testing.T) {
	g := testGraph(t)
	res := runEngine(t, g, goldenConfig())
	if got := digestResult(res); got != goldenDigest {
		t.Fatalf("golden digest changed:\n got %s\nwant %s", got, goldenDigest)
	}
	if res.Boards != 1 || res.FabricWalks != 0 || res.FabricBytes != 0 {
		t.Fatalf("single-board run used the fabric: %+v", res)
	}
}

// TestGoldenSeedRepeatable guards the determinism the digest relies on:
// two engines built from the same RunConfig produce identical digests.
func TestGoldenSeedRepeatable(t *testing.T) {
	g := testGraph(t)
	a := digestResult(runEngine(t, g, goldenConfig()))
	b := digestResult(runEngine(t, g, goldenConfig()))
	if a != b {
		t.Fatalf("same config, different digests:\n a %s\n b %s", a, b)
	}
}
