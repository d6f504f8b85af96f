// Package harness binds the engines to the paper's evaluation: it defines
// the scaled dataset registry (Table IV analogues), derives proportionally
// scaled engine configurations, and regenerates every table and figure of
// the evaluation section.
//
// Scaling rule (DESIGN.md §5): the paper's graphs are ~4096× larger than
// the analogues here, so GraphWalker's memory, GraphWalker's block size,
// FlashWalker's subgraph size and the walk counts are divided by the same
// factor; SSD geometry and accelerator cycle times are kept at their
// Table I/II/III values because they are the physics being studied, not
// the workload.
package harness

import (
	"fmt"
	"sync"

	"flashwalker/internal/errs"
	"flashwalker/internal/graph"
)

// Dataset is one scaled analogue of a Table IV graph.
type Dataset struct {
	// Name is the short code used throughout the paper (TT, FS, CW, R2B,
	// R8B) with an -S suffix marking the scaled analogue.
	Name string
	// Mirrors names the paper's original dataset.
	Mirrors string
	// IDBytes is the vertex ID width (8 for ClueWeb, 4 otherwise).
	IDBytes int
	// SubgraphBytes is FlashWalker's graph-block size for this dataset
	// (paper: 256 KB, 512 KB for ClueWeb; scaled by 1/64 to 4/8 KiB so a
	// block is 1-2 flash pages).
	SubgraphBytes int64
	// DefaultWalks is the scaled analogue of the paper's fixed walk count
	// (4x10^8, 10^9 for ClueWeb).
	DefaultWalks int
	// SubgraphsPerPartition overrides the partition granularity (0 keeps
	// the default 4096). The multi-board preset (MB-S) cuts partitions
	// fine so the graph spans many of them and an N-board array has real
	// shards to own; the single-board datasets fit one partition.
	SubgraphsPerPartition int
	// Gen generates the graph.
	Gen func() (*graph.Graph, error)
}

// cacheEntry guards one dataset's generated graph with its own sync.Once,
// so concurrent sweep runners share each graph safely: the registry lock
// only covers the map lookup, and generating one dataset never blocks
// generation of another.
type cacheEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*cacheEntry{}
)

// Graph returns the dataset's graph, generating it on first use and caching
// it for the process lifetime. Safe for concurrent use; generation runs at
// most once per dataset name, and different datasets generate in parallel.
func (d Dataset) Graph() (*graph.Graph, error) {
	cacheMu.Lock()
	e, ok := cache[d.Name]
	if !ok {
		e = &cacheEntry{}
		cache[d.Name] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() {
		g, err := d.Gen()
		if err != nil {
			e.err = fmt.Errorf("harness: generating %s: %w", d.Name, err)
			return
		}
		e.g = g
	})
	return e.g, e.err
}

// Datasets returns the five scaled analogues of Table IV, in the paper's
// order.
func Datasets() []Dataset {
	return []Dataset{
		{
			// Twitter: 41.6M vertices, 1.46B edges, heavy skew (celebrity
			// hubs). Scaled: avg degree ~35 kept, strong R-MAT skew.
			Name: "TT-S", Mirrors: "Twitter", IDBytes: 4,
			SubgraphBytes: 4 << 10, DefaultWalks: 100_000,
			Gen: func() (*graph.Graph, error) {
				cfg := graph.RMATConfig{
					NumVertices: 10_156, NumEdges: 356_000,
					A: 0.57, B: 0.19, C: 0.19, D: 0.05,
					Noise: 0.05, RemoveDuplicates: true, Seed: 41,
				}
				return graph.RMAT(cfg)
			},
		},
		{
			// Friendster: 65.6M vertices, 3.61B edges, avg degree ~55,
			// milder skew than Twitter.
			Name: "FS-S", Mirrors: "Friendster", IDBytes: 4,
			SubgraphBytes: 4 << 10, DefaultWalks: 100_000,
			Gen: func() (*graph.Graph, error) {
				cfg := graph.RMATConfig{
					NumVertices: 16_016, NumEdges: 881_000,
					A: 0.48, B: 0.22, C: 0.22, D: 0.08,
					Noise: 0.05, RemoveDuplicates: true, Seed: 42,
				}
				return graph.RMAT(cfg)
			},
		},
		{
			// ClueWeb: 4.78B vertices, 7.94B edges — avg out-degree only
			// 1.66, so walks dead-end quickly and stragglers dominate
			// (Figure 8d). 8-byte IDs (vertex count exceeds 4 bytes in the
			// original).
			Name: "CW-S", Mirrors: "ClueWeb", IDBytes: 8,
			SubgraphBytes: 8 << 10, DefaultWalks: 250_000,
			Gen: func() (*graph.Graph, error) {
				cfg := graph.RMATConfig{
					NumVertices: 1_166_848, NumEdges: 1_940_000,
					A: 0.50, B: 0.21, C: 0.21, D: 0.08,
					Noise: 0.05, RemoveDuplicates: true, Seed: 43,
				}
				return graph.RMAT(cfg)
			},
		},
		{
			// RMAT2B: PaRMAT defaults, 62.5M vertices, 2B edges.
			Name: "R2B-S", Mirrors: "RMAT2B", IDBytes: 4,
			SubgraphBytes: 4 << 10, DefaultWalks: 100_000,
			Gen: func() (*graph.Graph, error) {
				return graph.RMAT(graph.DefaultRMAT(15_258, 488_000, 44))
			},
		},
		{
			// RMAT8B: PaRMAT defaults, 250M vertices, 8B edges.
			Name: "R8B-S", Mirrors: "RMAT8B", IDBytes: 4,
			SubgraphBytes: 4 << 10, DefaultWalks: 100_000,
			Gen: func() (*graph.Graph, error) {
				return graph.RMAT(graph.DefaultRMAT(61_035, 1_950_000, 45))
			},
		},
	}
}

// ExtraDatasets returns the presets that exist beyond the paper's Table IV —
// resolvable by name everywhere (DatasetByName, the service registry, the
// CLIs) but excluded from Datasets() so the figure and table sweeps stay on
// the paper's five graphs.
func ExtraDatasets() []Dataset {
	return []Dataset{
		{
			// Multi-board preset: an R8B-scale graph cut into 256-subgraph
			// partitions, so the CSR spans several partitions and an N-board
			// array has one shard per board — a workload no single board's
			// 64-subgraph buffer tier can hold resident.
			Name: "MB-S", Mirrors: "RMAT8B/array", IDBytes: 4,
			SubgraphBytes: 4 << 10, DefaultWalks: 100_000,
			SubgraphsPerPartition: 256,
			Gen: func() (*graph.Graph, error) {
				return graph.RMAT(graph.DefaultRMAT(65_536, 2_000_000, 46))
			},
		},
	}
}

// DatasetByName finds a dataset by its short code, searching the Table IV
// analogues and the extra presets.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	for _, d := range ExtraDatasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("harness: unknown dataset %q: %w", name, errs.ErrUnknownDataset)
}

// Scaled memory capacities for GraphWalker (paper: 4/8/16 GB at full
// scale; divided by 4096).
const (
	GWMem4GB  = 1 << 20 // analogue of 4 GB
	GWMem8GB  = 2 << 20 // analogue of 8 GB (the default)
	GWMem16GB = 4 << 20 // analogue of 16 GB
)
