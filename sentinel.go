// Package sentinel is the public API of this reproduction of Yang &
// Chakravarthy, "Formal Semantics of Composite Events for Distributed
// Environments" (ICDE 1999): a Sentinel-style composite event detection
// engine — centralized and distributed — built on the paper's
// distributed timestamp algebra.
//
// The package re-exports the pieces a downstream user needs:
//
//   - the timestamp algebra (Stamp, SetStamp, the <, ~, ⪯ relations, the
//     Max operator) from internal/core;
//   - the simulated approximated-global-time base from internal/clock;
//   - the Snoop event expression language from internal/expr;
//   - the detector with its parameter contexts from internal/detector;
//   - the multi-site simulation (sites, network, watermark reordering)
//     from internal/ddetect;
//   - the active-database substrate and ECA rules from internal/activedb
//     and internal/rules.
//
// # Architecture: the staged detection pipeline
//
// Every System tick runs an explicit five-stage pipeline
// (internal/pipeline composed by internal/ddetect):
//
//	ingest    — site raises: stamping, simultaneity enforcement,
//	            journaling, hand-off to the bus; watermark heartbeats
//	transport — batch bus drain + per-link FIFO restore
//	release   — watermark release of stable events, in one total order
//	            a centralized detector would see, into per-site detect
//	            inboxes
//	detect    — per-site detector graphs over the released batches
//	publish   — subscriber fan-out, hierarchical forwarding, stats
//
// One goroutine turns the crank: every stage runs on the goroutine that
// calls Step/Run/Settle and walks the sites in ID order, and released
// batches are deterministically ordered by (watermark global, site, local,
// arrival), so the occurrence stream is a function of the seeded history
// alone.  A System is not safe for concurrent use; wrap it in a Runtime
// for concurrent producers, and scale out by running more processes — the
// paper's unit of distribution is the site, not the thread.
// Per-stage counters and wall-clock latency histograms are exposed via
// SystemStats.Stages, and PipelineConfig.OnStage hooks every stage tick.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	sys := sentinel.MustNewSystem(sentinel.SystemConfig{})
//	sys.MustAddSite("ny", 0, 0)
//	sys.MustAddSite("ldn", 30, 0)
//	_ = sys.Declare("Buy", sentinel.Explicit)
//	_ = sys.Declare("Sell", sentinel.Explicit)
//	sys.DefineAt("ny", "RoundTrip", "Buy ; Sell", sentinel.Chronicle)
//	sys.Subscribe("RoundTrip", func(o *sentinel.Occurrence) { ... })
//	sys.Site("ldn").MustRaise("Buy", sentinel.Explicit, nil)
//	sys.Run(1000, 100)
package sentinel

import (
	"repro/internal/activedb"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ddetect"
	"repro/internal/detector"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/live"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/rules"
)

// Timestamp algebra (Sections 4 and 5 of the paper).
type (
	// SiteID identifies a site.
	SiteID = core.SiteID
	// Stamp is a distributed primitive timestamp (site, global, local).
	Stamp = core.Stamp
	// SetStamp is a distributed composite timestamp: a set of mutually
	// concurrent "latest" primitive stamps.
	SetStamp = core.SetStamp
	// Relation classifies two primitive stamps.
	Relation = core.Relation
	// SetRelation classifies two composite stamps.
	SetRelation = core.SetRelation
)

// Event model.
type (
	// Occurrence is one event occurrence, primitive or composite.
	Occurrence = event.Occurrence
	// Params is an occurrence's parameter list.
	Params = event.Params
	// Class is a primitive event class.
	Class = event.Class
	// Registry catalogs declared event types.
	Registry = event.Registry
)

// Expression language.
type (
	// Expr is an event expression AST node.
	Expr = expr.Node
)

// Detection.
type (
	// Context is a Snoop parameter context.
	Context = detector.Context
	// Detector is the single-site detection engine.
	Detector = detector.Detector
	// Definition is a compiled named composite event.
	Definition = detector.Definition
	// Handler receives detected occurrences.
	Handler = detector.Handler
	// TimeSource supplies a detector's local time.
	TimeSource = detector.TimeSource
)

// Distributed simulation.
type (
	// System is the multi-site detection deployment.
	System = ddetect.System
	// Site is one simulated site runtime.
	Site = ddetect.Site
	// SystemConfig configures a System.
	SystemConfig = ddetect.Config
	// SystemStats aggregates a System's counters.
	SystemStats = ddetect.Stats
	// NetConfig configures the simulated network.
	NetConfig = network.Config
	// ClockConfig configures the simulated time base.
	ClockConfig = clock.Config
	// Microticks is simulated time in reference granules.
	Microticks = clock.Microticks
	// Runtime makes a System safe for concurrent producers.
	Runtime = live.Runtime
	// PipelineConfig tunes the staged execution: OnStage hooks per-stage
	// instrumentation.
	PipelineConfig = pipeline.Config
	// StageEvent is one per-stage instrumentation sample.
	StageEvent = pipeline.StageEvent
	// StageStats aggregates one pipeline stage's counters and latency
	// histogram; SystemStats.Stages holds one per stage.
	StageStats = pipeline.StageStats
	// StageHistogram is a power-of-two-bucketed wall-clock histogram.
	StageHistogram = pipeline.Histogram
)

// Active database and ECA rules.
type (
	// Store is the in-memory active object store.
	Store = activedb.Store
	// Tx is a store transaction.
	Tx = activedb.Tx
	// Object is a stored object.
	Object = activedb.Object
	// Rule is an ECA rule.
	Rule = rules.Rule
	// RuleManager owns a rule set.
	RuleManager = rules.Manager
	// Coupling is an ECA coupling mode.
	Coupling = rules.Coupling
)

// Parameter contexts.
const (
	Unrestricted = detector.Unrestricted
	Recent       = detector.Recent
	Chronicle    = detector.Chronicle
	Continuous   = detector.Continuous
	Cumulative   = detector.Cumulative
)

// Event classes.
const (
	Temporal    = event.Temporal
	Database    = event.Database
	Transaction = event.Transaction
	Explicit    = event.Explicit
	Composite   = event.Composite
)

// Coupling modes.
const (
	Immediate = rules.Immediate
	Deferred  = rules.Deferred
	Detached  = rules.Detached
)

// Set relations.
const (
	SetBefore       = core.SetBefore
	SetAfter        = core.SetAfter
	SetConcurrent   = core.SetConcurrent
	SetIncomparable = core.SetIncomparable
)

// Algebra entry points.
var (
	// MaxSet computes max(ST) per Definition 5.1.
	MaxSet = core.MaxSet
	// Max is the composite-timestamp Max operator (Definition 5.9 /
	// Theorem 5.4).
	Max = core.Max
	// MaxAll folds Max over several timestamps.
	MaxAll = core.MaxAll
	// NewSetStamp builds a composite timestamp from primitive stamps.
	NewSetStamp = core.NewSetStamp
	// DeriveStamp builds a primitive stamp from a local tick.
	DeriveStamp = core.DeriveStamp
)

// Language entry points.
var (
	// ParseExpr parses the Snoop concrete syntax.
	ParseExpr = expr.Parse
	// MustParseExpr panics on parse errors.
	MustParseExpr = expr.MustParse
)

// Engine entry points.
var (
	// NewDetector creates a single-site detector.
	NewDetector = detector.New
	// NewSystem creates a distributed system.
	NewSystem = ddetect.NewSystem
	// MustNewSystem panics on configuration errors.
	MustNewSystem = ddetect.MustNewSystem
	// NewRegistry creates an event type registry.
	NewRegistry = event.NewRegistry
	// NewStore creates an active object store.
	NewStore = activedb.NewStore
	// NewRuleManager creates an ECA rule manager.
	NewRuleManager = rules.NewManager
	// PaperClockConfig is the Section 5.1 clock scale.
	PaperClockConfig = clock.PaperConfig
	// NewRuntime wraps a System for concurrent producers.
	NewRuntime = live.New
)
