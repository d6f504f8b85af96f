package flashwalker

// Public API facade: the implementation lives under internal/, and this
// file re-exports the types and entry points a downstream user needs —
// graph construction, walk specification, the FlashWalker simulator, the
// GraphWalker baseline, and the scaled dataset registry.

import (
	"context"

	"flashwalker/internal/baseline"
	"flashwalker/internal/core"
	"flashwalker/internal/errs"
	"flashwalker/internal/fault"
	"flashwalker/internal/graph"
	"flashwalker/internal/harness"
	"flashwalker/internal/sim"
	"flashwalker/internal/trace"
	"flashwalker/internal/walk"
)

// Re-exported types. Aliases keep the full method sets of the underlying
// implementations.
type (
	// Graph is an immutable directed graph in CSR form.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// VertexID identifies a vertex: a uint32, so a graph has at most
	// 2^32-1 vertices (graph.MaxVertices).
	VertexID = graph.VertexID

	// WalkSpec selects the random-walk algorithm (kind, length, and the
	// kind-specific parameters).
	WalkSpec = walk.Spec
	// Walk is one walker's state (src, cur, hop).
	Walk = walk.Walk
	// WalkStats aggregates reference-executor outcomes.
	WalkStats = walk.Stats

	// Options are FlashWalker's Figure-9 feature toggles (walk query, hot
	// subgraphs, smart scheduling).
	Options = core.Options
	// EngineConfig holds the Table II accelerator parameters.
	EngineConfig = core.Config
	// RunConfig bundles everything one FlashWalker simulation needs.
	RunConfig = core.RunConfig
	// Result is a FlashWalker run's outcome and instrumentation.
	Result = core.Result
	// EnergyConfig and Energy estimate a run's energy from its counters.
	EnergyConfig = core.EnergyConfig
	Energy       = core.Energy
	// FaultConfig enables deterministic fault injection in the simulated
	// flash stack (set it on EngineConfig.Faults or BaselineConfig.Faults);
	// FaultCounters reports what was injected and how the engine responded.
	FaultConfig   = fault.Config
	FaultCounters = fault.Counters

	// BaselineConfig parameterizes the GraphWalker comparison system.
	BaselineConfig = baseline.Config
	// BaselineResult is a GraphWalker run's outcome.
	BaselineResult = baseline.Result

	// Dataset is one scaled analogue of the paper's Table IV graphs.
	Dataset = harness.Dataset

	// SimTime is a simulated duration in nanoseconds.
	SimTime = sim.Time

	// Tracer receives structured simulation events; TraceRecorder is the
	// in-memory implementation.
	Tracer        = trace.Tracer
	TraceRecorder = trace.Recorder
)

// Walk kinds.
const (
	// Unbiased walks sample neighbors uniformly.
	Unbiased = walk.Unbiased
	// Biased walks sample by edge weight (inverse transform sampling).
	Biased = walk.Biased
	// Restart walks stop with a per-hop probability (PPR-style).
	Restart = walk.Restart
	// SecondOrder walks use node2vec's p/q dynamic weights.
	SecondOrder = walk.SecondOrder
)

// AllOptions enables every FlashWalker optimization.
func AllOptions() Options { return core.AllOptions() }

// DefaultFaultConfig returns the representative enabled fault profile (2%
// read errors, 5% plane-busy stalls, bounded retry, sticky degradation).
func DefaultFaultConfig() FaultConfig { return fault.Default() }

// NewGraphBuilder creates a builder for a graph with numVertices vertices.
func NewGraphBuilder(numVertices uint64) *GraphBuilder { return graph.NewBuilder(numVertices) }

// GenerateRMAT builds a synthetic R-MAT graph with PaRMAT-default
// parameters.
func GenerateRMAT(vertices, edges, seed uint64) (*Graph, error) {
	return graph.RMAT(graph.DefaultRMAT(vertices, edges, seed))
}

// GeneratePowerLaw builds a power-law graph with the given skew exponent.
func GeneratePowerLaw(vertices, edges uint64, alpha float64, seed uint64) (*Graph, error) {
	return graph.PowerLaw(graph.PowerLawConfig{
		NumVertices: vertices, NumEdges: edges, Alpha: alpha, Seed: seed,
	})
}

// LoadGraph reads a graph from the binary format (see SaveGraph).
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// SaveGraph writes a graph in the binary format gengraph produces.
func SaveGraph(path string, g *Graph) error { return graph.Save(path, g) }

// Datasets returns the five scaled analogues of the paper's Table IV.
func Datasets() []Dataset { return harness.Datasets() }

// DatasetByName finds a registered dataset (TT-S, FS-S, CW-S, R2B-S,
// R8B-S).
func DatasetByName(name string) (Dataset, error) { return harness.DatasetByName(name) }

// DefaultRunConfig derives a proportionally scaled FlashWalker
// configuration for a dataset (Table II cycle times, scaled buffers).
func DefaultRunConfig(d Dataset, opts Options, numWalks int, seed uint64) RunConfig {
	return harness.FlashWalkerConfig(d, opts, numWalks, seed)
}

// DefaultBaselineConfig derives the scaled GraphWalker configuration
// (memory is the Figure-7 knob; harness.GWMem8GB is the default analogue).
func DefaultBaselineConfig(d Dataset, memBytes int64, seed uint64) BaselineConfig {
	return harness.GraphWalkerConfig(d, memBytes, seed)
}

// Scaled GraphWalker memory capacities (analogues of the paper's
// 4/8/16 GB).
const (
	BaselineMem4GB  = harness.GWMem4GB
	BaselineMem8GB  = harness.GWMem8GB
	BaselineMem16GB = harness.GWMem16GB
)

// Sentinel errors. Every failure from the entry points below wraps one of
// these, so callers classify with errors.Is instead of string matching.
var (
	// ErrCanceled reports a run halted by context cancellation. The
	// accompanying result, when non-nil, is a consistent partial snapshot
	// taken at the halting event boundary.
	ErrCanceled = errs.ErrCanceled
	// ErrInvalidConfig reports a rejected configuration or walk spec.
	ErrInvalidConfig = errs.ErrInvalidConfig
	// ErrUnknownDataset reports a dataset name missing from the registry.
	ErrUnknownDataset = errs.ErrUnknownDataset
)

// Progress is a live FlashWalker counter snapshot (RunConfig.OnProgress).
type Progress = core.Progress

// Simulate runs the FlashWalker in-storage accelerator on g. Canceling ctx
// halts the simulation at the next event boundary and returns the partial
// result along with an error wrapping ErrCanceled; an uncanceled run is
// bit-identical to one with context.Background().
//
// RunConfig.Cfg.Boards selects the device topology: 0 or 1 simulates the
// paper's single board; N > 1 an N-board SSD array, each board owning a
// shard of the graph partitions, connected by a modeled inter-board fabric.
// Walk outcomes are identical across board counts (per-walk RNG streams);
// only the simulated timeline changes.
func Simulate(ctx context.Context, g *Graph, rc RunConfig) (*Result, error) {
	e, err := core.NewEngine(g, rc)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// SimulateBaseline runs the GraphWalker comparison system on g with
// numWalks walks starting at uniformly random vertices. Cancellation
// behaves as in Simulate.
func SimulateBaseline(ctx context.Context, g *Graph, cfg BaselineConfig, spec WalkSpec, numWalks int, startSeed uint64) (*BaselineResult, error) {
	e, err := baseline.New(g, cfg, spec, numWalks, startSeed)
	if err != nil {
		return nil, err
	}
	return e.RunContext(ctx)
}

// RunWalks executes walks directly on the graph (the reference CPU
// implementation, no hardware simulation): numWalks walks from uniformly
// random start vertices. The optional trace callback receives each walk's
// full path. Canceling ctx stops between walks and returns the partial
// stats with an error wrapping ErrCanceled.
func RunWalks(ctx context.Context, g *Graph, spec WalkSpec, numWalks int, seed uint64, traceFn func(i int, path []VertexID)) (*WalkStats, error) {
	ws := walk.NewWalks(spec, walk.UniformStarts(g, numWalks, seed), numWalks)
	return walk.RunContext(ctx, g, spec, ws, seed+1, traceFn)
}

// EstimateEnergy converts a FlashWalker result into a joule estimate using
// the default per-operation energies.
func EstimateEnergy(r *Result) Energy {
	return core.FlashWalkerEnergy(core.DefaultEnergy(), r)
}

// NewTraceRecorder returns an in-memory tracer to pass in
// RunConfig.Tracer.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
