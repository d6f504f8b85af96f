package core

import (
	"fmt"
	"testing"

	"flashwalker/internal/graph"
	"flashwalker/internal/walk"
)

// secondOrderGoldenDigests pin the full timeline of node2vec runs in the
// sampler's three regimes: p = 0.5, q = 2, where the rejection dart decides
// most proposals; p = 2, q = 0.5, where the common-neighbour weight is the
// maximum and the filter is probed before the dart; and p = q = 1, where
// every proposal is accepted. Each runs on one and two boards over a graph
// with dense vertices, so dense pre-walks draw through the sampler too. The
// same update discipline as goldenDigest applies.
var secondOrderGoldenDigests = map[string]string{
	"p0.5q2/1": "time=1294000 started=400 completed=400 dead=0 hops=3200 readPages=196 progPages=0 readB=802816 chanB=395372 dramR=83408 dramW=30848 qcHit=574 qcMiss=1574 search=5047 range=1289 prewalk=144 hotCh=280 hotBd=645 chip=2275 loads=809 reloads=661 pwb=0 foreign=381 switches=20 filterProbes=6570",
	"p0.5q2/2": "time=956000 started=400 completed=400 dead=0 hops=3200 readPages=282 progPages=0 readB=1155072 chanB=599900 dramR=84588 dramW=32028 qcHit=484 qcMiss=1601 search=5043 range=1346 prewalk=144 hotCh=290 hotBd=531 chip=2379 loads=922 reloads=736 pwb=0 foreign=381 switches=29 filterProbes=6570",
	"p2q0.5/1": "time=1090000 started=400 completed=400 dead=0 hops=3200 readPages=183 progPages=0 readB=749568 chanB=318816 dramR=51688 dramW=30256 qcHit=550 qcMiss=1589 search=4985 range=1266 prewalk=158 hotCh=261 hotBd=689 chip=2250 loads=757 reloads=622 pwb=0 foreign=437 switches=16 filterProbes=2679",
	"p2q0.5/2": "time=1006000 started=400 completed=400 dead=0 hops=3200 readPages=287 progPages=0 readB=1175552 chanB=520620 dramR=52928 dramW=31496 qcHit=439 qcMiss=1659 search=5134 range=1328 prewalk=158 hotCh=271 hotBd=592 chip=2337 loads=865 reloads=674 pwb=0 foreign=437 switches=25 filterProbes=2679",
	"p1q1/1":   "time=1186000 started=400 completed=400 dead=0 hops=3200 readPages=192 progPages=0 readB=786432 chanB=312820 dramR=49248 dramW=30424 qcHit=552 qcMiss=1592 search=5035 range=1275 prewalk=157 hotCh=259 hotBd=679 chip=2262 loads=776 reloads=632 pwb=0 foreign=444 switches=19 filterProbes=2353",
	"p1q1/2":   "time=1026000 started=400 completed=400 dead=0 hops=3200 readPages=289 progPages=0 readB=1183744 chanB=513688 dramR=50228 dramW=31404 qcHit=443 qcMiss=1645 search=5139 range=1323 prewalk=157 hotCh=274 hotBd=580 chip=2346 loads=880 reloads=687 pwb=0 foreign=444 switches=30 filterProbes=2353",
}

// hubGraph is secondOrderGraph's ring of bidirectional edges on 2,048
// vertices plus two hubs joined both ways to 400 vertices each, above the
// 255-edge dense threshold of testConfig's 1 KiB blocks.
func hubGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 2048
	b := graph.NewBuilder(n)
	for v := graph.VertexID(0); v < n; v++ {
		for _, d := range []graph.VertexID{(v + 1) % n, (v + 17) % n, (v + 101) % n} {
			b.AddEdge(v, d)
			b.AddEdge(d, v)
		}
	}
	for _, hub := range []graph.VertexID{0, 1000} {
		for k := graph.VertexID(0); k < 400; k++ {
			d := (hub + 3 + 5*k) % n
			b.AddEdge(hub, d)
			b.AddEdge(d, hub)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSecondOrderGoldenDigest pins the second-order timelines, filter
// probes and pre-walks included.
func TestSecondOrderGoldenDigest(t *testing.T) {
	g := hubGraph(t)
	for _, pq := range [][2]float64{{0.5, 2}, {2, 0.5}, {1, 1}} {
		for _, nb := range []int{1, 2} {
			name := fmt.Sprintf("p%gq%g/%d", pq[0], pq[1], nb)
			rc := goldenConfig()
			rc.Cfg.Boards = nb
			rc.PartCfg.SubgraphsPerPartition = 16
			rc.NumWalks = 400
			rc.Spec = walk.Spec{Kind: walk.SecondOrder, Length: 8, P: pq[0], Q: pq[1]}
			res := runEngine(t, g, rc)
			got := fmt.Sprintf("%s filterProbes=%d", digestResult(res), res.FilterProbes)
			if got != secondOrderGoldenDigests[name] {
				t.Errorf("%s: second-order digest changed:\n got %s\nwant %s", name, got, secondOrderGoldenDigests[name])
			}
			if res.PreWalks == 0 || res.FilterProbes == 0 {
				t.Errorf("%s: %d pre-walks and %d filter probes; the digest must cover both", name, res.PreWalks, res.FilterProbes)
			}
		}
	}
}
