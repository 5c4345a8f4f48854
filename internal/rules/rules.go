// Package rules implements ECA (Event-Condition-Action) rule management
// over the composite event detector: when a named (composite or
// primitive) event is detected and the rule's condition holds on the
// occurrence, the action runs — the active-database capability the
// paper's event semantics exists to serve.
//
// Supported features, following Sentinel:
//
//   - priorities: rules triggered by the same occurrence run in
//     descending priority order (ties by name, for determinism);
//   - coupling modes: Immediate actions run synchronously inside the
//     triggering detection; Deferred actions queue until the application
//     flushes them (typically at transaction commit); Detached actions
//     queue for an independent execution step;
//   - enable/disable at runtime;
//   - cascade limiting: actions may raise further events and trigger more
//     rules; a configurable depth bound turns runaway recursion into an
//     error instead of a hang.
package rules

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/detector"
	"repro/internal/event"
)

// Coupling is an ECA coupling mode.
type Coupling int

const (
	// Immediate runs the action synchronously when the event fires.
	Immediate Coupling = iota
	// Deferred queues the action until FlushDeferred (end of the
	// triggering transaction, in Sentinel terms).
	Deferred
	// Detached queues the action for RunDetached (a separate
	// transaction).
	Detached
)

func (c Coupling) String() string {
	switch c {
	case Immediate:
		return "immediate"
	case Deferred:
		return "deferred"
	case Detached:
		return "detached"
	default:
		return fmt.Sprintf("Coupling(%d)", int(c))
	}
}

// Condition decides whether a triggered rule fires.  A nil Condition is
// always true.
type Condition func(*event.Occurrence) bool

// Action is a rule body.  Errors are collected by the manager, not
// propagated into detection.
type Action func(*event.Occurrence) error

// Rule is one ECA rule.
type Rule struct {
	Name      string
	EventName string
	Condition Condition
	Action    Action
	Priority  int
	Coupling  Coupling

	enabled bool
}

// Enabled reports whether the rule currently fires.
func (r *Rule) Enabled() bool { return r.enabled }

// Subscriber is the slice of the detector API the manager needs
// (satisfied by *detector.Detector; wrap APIs that return errors, such as
// *ddetect.System, with SubFunc).
type Subscriber interface {
	Subscribe(name string, h detector.Handler)
}

// SubFunc adapts a function to Subscriber.
type SubFunc func(name string, h detector.Handler)

// Subscribe calls f.
func (f SubFunc) Subscribe(name string, h detector.Handler) { f(name, h) }

// Stats counts rule activity.
type Stats struct {
	Triggered      uint64 // rule evaluations started
	ConditionFalse uint64
	Executed       uint64
	Errors         uint64
	DeferredQueued uint64
	DetachedQueued uint64
}

// Manager owns a rule set bound to one detector.  Like the detector it is
// single-threaded by design.
type Manager struct {
	sub        Subscriber
	rules      map[string]*Rule
	byEvent    map[string][]*Rule
	subscribed map[string]bool

	deferred []pending
	detached []pending

	maxCascade int
	depth      int
	errs       []error
	stats      Stats
}

type pending struct {
	rule *Rule
	occ  *event.Occurrence
}

// NewManager creates a manager over the subscriber with the given cascade
// depth limit (≤0 means the default of 16).
func NewManager(sub Subscriber, maxCascade int) *Manager {
	if maxCascade <= 0 {
		maxCascade = 16
	}
	return &Manager{
		sub:        sub,
		rules:      make(map[string]*Rule),
		byEvent:    make(map[string][]*Rule),
		subscribed: make(map[string]bool),
		maxCascade: maxCascade,
	}
}

// Errors returned by the manager.
var (
	ErrDuplicateRule = errors.New("rules: duplicate rule name")
	ErrUnknownRule   = errors.New("rules: unknown rule")
	ErrCascadeLimit  = errors.New("rules: cascade depth limit exceeded")
)

// Add registers and enables a rule.
func (m *Manager) Add(r Rule) (*Rule, error) {
	if r.Name == "" || r.EventName == "" {
		return nil, errors.New("rules: rule needs a name and an event")
	}
	if r.Action == nil {
		return nil, fmt.Errorf("rules: rule %q has no action", r.Name)
	}
	if _, dup := m.rules[r.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateRule, r.Name)
	}
	rule := &Rule{
		Name: r.Name, EventName: r.EventName, Condition: r.Condition,
		Action: r.Action, Priority: r.Priority, Coupling: r.Coupling, enabled: true,
	}
	m.rules[rule.Name] = rule
	m.byEvent[rule.EventName] = insertByPriority(m.byEvent[rule.EventName], rule)
	if !m.subscribed[rule.EventName] {
		m.subscribed[rule.EventName] = true
		name := rule.EventName
		m.sub.Subscribe(name, func(o *event.Occurrence) { m.trigger(name, o) })
	}
	return rule, nil
}

// MustAdd is Add that panics on error.
func (m *Manager) MustAdd(r Rule) *Rule {
	rule, err := m.Add(r)
	if err != nil {
		panic(err)
	}
	return rule
}

// insertByPriority keeps descending priority, ties by ascending name.
func insertByPriority(rs []*Rule, r *Rule) []*Rule {
	rs = append(rs, r)
	slices.SortStableFunc(rs, func(a, b *Rule) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return strings.Compare(a.Name, b.Name)
	})
	return rs
}

// Enable re-enables a rule.
func (m *Manager) Enable(name string) error { return m.setEnabled(name, true) }

// Disable stops a rule from firing (it stays registered).
func (m *Manager) Disable(name string) error { return m.setEnabled(name, false) }

func (m *Manager) setEnabled(name string, v bool) error {
	r, ok := m.rules[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownRule, name)
	}
	r.enabled = v
	return nil
}

// Rules returns all rules sorted by name.
func (m *Manager) Rules() []*Rule {
	out := make([]*Rule, 0, len(m.rules))
	for _, r := range m.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Errs returns and clears the accumulated action errors.
func (m *Manager) Errs() []error {
	e := m.errs
	m.errs = nil
	return e
}

// trigger evaluates all rules bound to an event occurrence.
func (m *Manager) trigger(name string, o *event.Occurrence) {
	for _, r := range m.byEvent[name] {
		if !r.enabled {
			continue
		}
		m.stats.Triggered++
		if r.Condition != nil && !r.Condition(o) {
			m.stats.ConditionFalse++
			continue
		}
		switch r.Coupling {
		case Immediate:
			m.execute(r, o)
		case Deferred:
			m.deferred = append(m.deferred, pending{rule: r, occ: o})
			m.stats.DeferredQueued++
		case Detached:
			m.detached = append(m.detached, pending{rule: r, occ: o})
			m.stats.DetachedQueued++
		}
	}
}

// execute runs an action with cascade accounting.
func (m *Manager) execute(r *Rule, o *event.Occurrence) {
	if m.depth >= m.maxCascade {
		m.stats.Errors++
		m.errs = append(m.errs, fmt.Errorf("%w: rule %q at depth %d", ErrCascadeLimit, r.Name, m.depth))
		return
	}
	m.depth++
	defer func() { m.depth-- }()
	m.stats.Executed++
	if err := r.Action(o); err != nil {
		m.stats.Errors++
		m.errs = append(m.errs, fmt.Errorf("rules: rule %q: %w", r.Name, err))
	}
}

// FlushDeferred runs all queued deferred actions (in queue order) —
// Sentinel's end-of-transaction point.  Actions queued *while* flushing
// (cascades) run in the same flush.
func (m *Manager) FlushDeferred() int {
	n := 0
	for len(m.deferred) > 0 {
		p := m.deferred[0]
		m.deferred = m.deferred[1:]
		m.execute(p.rule, p.occ)
		n++
	}
	return n
}

// RunDetached runs all queued detached actions, each notionally its own
// transaction.
func (m *Manager) RunDetached() int {
	n := 0
	for len(m.detached) > 0 {
		p := m.detached[0]
		m.detached = m.detached[1:]
		m.execute(p.rule, p.occ)
		n++
	}
	return n
}

// PendingDeferred and PendingDetached report queue depths.
func (m *Manager) PendingDeferred() int { return len(m.deferred) }

// PendingDetached reports the detached queue depth.
func (m *Manager) PendingDetached() int { return len(m.detached) }
