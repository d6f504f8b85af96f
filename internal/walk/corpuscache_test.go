package walk

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"flashwalker/internal/graph"
)

// ringCorpus is a DeepWalk corpus fixture: the paths of one unbiased walk
// of length hops from every vertex of an n-vertex ring.
func ringCorpus(t *testing.T, n uint64, length uint32, seed uint64) [][]graph.VertexID {
	t.Helper()
	g := graph.Ring(n)
	spec := Spec{Kind: Unbiased, Length: length}
	starts := AllStarts(g)
	var corpus [][]graph.VertexID
	if _, err := RunContext(context.Background(), g, spec, NewWalks(spec, starts, len(starts)), seed,
		func(_ int, path []graph.VertexID) { corpus = append(corpus, slices.Clone(path)) }); err != nil {
		t.Fatal(err)
	}
	return corpus
}

func testCorpusEntry(t *testing.T, name string, seed uint64) *CachedCorpus {
	t.Helper()
	corpus := ringCorpus(t, 16, 4, seed)
	key := CorpusKey{
		Graph: name,
		Spec:  Spec{Kind: Unbiased, Length: 4},
		Seed:  seed, WalksPerVertex: 1,
	}
	c, err := Seal(key, corpus)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusCacheHitMiss(t *testing.T) {
	cc := NewCorpusCache(4)
	c := testCorpusEntry(t, "ring", 1)

	if _, ok, err := cc.Get(c.Key); ok || err != nil {
		t.Fatalf("empty cache returned a hit (ok=%v err=%v)", ok, err)
	}
	cc.Put(c)
	got, ok, err := cc.Get(c.Key)
	if err != nil || !ok {
		t.Fatalf("hit failed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Data, c.Data) || got.SHA != c.SHA {
		t.Fatal("hit returned different corpus bytes")
	}
	if h, m := cc.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", h, m)
	}

	// A different seed is a different key — must miss.
	other := testCorpusEntry(t, "ring", 2)
	if _, ok, _ := cc.Get(other.Key); ok {
		t.Fatal("different seed hit the cache")
	}
}

func TestCorpusCacheSealedRoundTrip(t *testing.T) {
	cc := NewCorpusCache(4)
	c := testCorpusEntry(t, "ring", 3)
	cc.Put(c)
	got, ok, err := cc.Get(c.Key)
	if !ok || err != nil {
		t.Fatalf("hit failed: ok=%v err=%v", ok, err)
	}
	corpus, err := ReadCorpus(bytes.NewReader(got.Data))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != got.Walks {
		t.Fatalf("parsed %d walks, entry says %d", len(corpus), got.Walks)
	}
}

func TestCorpusCacheRefusesBrokenSeal(t *testing.T) {
	cc := NewCorpusCache(4)
	c := testCorpusEntry(t, "ring", 4)
	cc.Put(c)
	c.Data[0] ^= 0xFF // corrupt in place, seal now stale
	if _, ok, err := cc.Get(c.Key); ok || err == nil {
		t.Fatalf("corrupted entry served: ok=%v err=%v", ok, err)
	}
	// The corrupt entry must have been evicted, not served again.
	if cc.Len() != 0 {
		t.Fatalf("corrupt entry still cached (len=%d)", cc.Len())
	}
}

// TestCorpusCacheMutationHashKeys is the regression test for the key bug
// where a corpus generated on a mutated graph could be served for an
// unmutated job (and vice versa): the mutation-stream hash is part of the
// key, so jobs differing only in their stream select distinct entries,
// while a mutation-free job's key is byte-identical to a pre-field key.
func TestCorpusCacheMutationHashKeys(t *testing.T) {
	cc := NewCorpusCache(4)
	plain := testCorpusEntry(t, "ring", 1)
	ms := graph.MutationStream{{Op: graph.OpInsertEdge, Src: 0, Dst: 2}}

	mutated := *plain
	mutated.Key.MutationsHash = ms.Hash()
	cc.Put(plain)
	cc.Put(&mutated)
	if cc.Len() != 2 {
		t.Fatalf("mutated and plain corpora collapsed to %d entries, want 2", cc.Len())
	}

	// A mutation-free job must still hit the entry sealed before the field
	// existed: the empty stream hashes to the zero array.
	key := plain.Key
	key.MutationsHash = graph.MutationStream{}.Hash()
	if _, ok, err := cc.Get(key); !ok || err != nil {
		t.Fatalf("zero-stream key missed the mutation-free entry (ok=%v err=%v)", ok, err)
	}
	// And the mutated job must get the mutated corpus, not the plain one.
	if got, ok, _ := cc.Get(mutated.Key); !ok || got.Key.MutationsHash != ms.Hash() {
		t.Fatalf("mutated-stream key did not select the mutated entry (ok=%v)", ok)
	}
	// A different stream is a different key — must miss.
	other := plain.Key
	other.MutationsHash = graph.MutationStream{{Op: graph.OpDeleteEdge, Src: 0, Dst: 1}}.Hash()
	if _, ok, _ := cc.Get(other); ok {
		t.Fatal("a differently mutated job hit another stream's corpus")
	}
}

func TestCorpusCacheLRUEviction(t *testing.T) {
	cc := NewCorpusCache(2)
	a := testCorpusEntry(t, "a", 1)
	b := testCorpusEntry(t, "b", 1)
	c := testCorpusEntry(t, "c", 1)
	cc.Put(a)
	cc.Put(b)
	if _, ok, _ := cc.Get(a.Key); !ok { // touch a → b is now LRU
		t.Fatal("a missing")
	}
	cc.Put(c) // evicts b
	if _, ok, _ := cc.Get(b.Key); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok, _ := cc.Get(a.Key); !ok {
		t.Fatal("recently used entry a evicted")
	}
	if _, ok, _ := cc.Get(c.Key); !ok {
		t.Fatal("new entry c missing")
	}
}
