package detector

// Introspection: operator nodes report how much constituent state they
// retain, so operators and deployments can be monitored for buffer growth
// (e.g. Unrestricted-context definitions, or NOT initiators: a spoiled one
// is still retained, because a terminator concurrent with its spoilers
// may yet pair with it; retiring it exactly needs the release frontier
// inside the detector).

// stateful is implemented by nodes that buffer occurrences.
type stateful interface {
	stateSize() int
}

func (n *binaryNode) stateSize() int { return len(n.buf[0]) + len(n.buf[1]) }

func (n *anyNode) stateSize() int {
	total := 0
	for _, b := range n.buf {
		total += len(b)
	}
	return total
}

func (n *notNode) stateSize() int { return len(n.inits) + len(n.e2s) }

func (n *aperiodicNode) stateSize() int {
	total := 0
	for _, w := range n.windows {
		total += 1 + len(w.acc)
	}
	return total
}

func (n *periodicNode) stateSize() int {
	total := 0
	for _, w := range n.windows {
		total += 1 + len(w.acc)
	}
	return total
}

// StateSize returns the total number of occurrences buffered across all
// operator nodes of all definitions, plus armed timers.  A steady
// workload against consuming contexts keeps this bounded; Unrestricted
// (and spoiler-heavy NOT workloads) grow it, which is exactly what a
// deployment wants to alarm on.
func (d *Detector) StateSize() int {
	total := d.timers.Len()
	for _, n := range d.nodes {
		if s, ok := n.(stateful); ok {
			total += s.stateSize()
		}
	}
	return total
}

// NodeCount returns the number of operator nodes compiled into the graph.
func (d *Detector) NodeCount() int { return len(d.nodes) }

// IntrospectStats is a one-call snapshot of the detector's health
// gauges, for monitoring bridges (the observability registry reads one
// per site at export time instead of four separate accessors).
type IntrospectStats struct {
	// StateSize is Detector.StateSize: buffered occurrences plus armed
	// timers across all operator nodes.
	StateSize int
	// NodeCount is the number of compiled operator nodes.
	NodeCount int
	// PendingTimers is the number of armed temporal-operator timers.
	PendingTimers int
	// Dropped is DroppedOccurrences: buffer-limit evictions (recall lost
	// to bounded state).
	Dropped uint64
	// OrderViolations is OrderViolations: out-of-order publishes seen
	// with order checking enabled.
	OrderViolations uint64
	// SharedSubexprs is the number of (context, subtree) entries in the
	// CSE cache — compiled sub-expressions reused across definitions.
	SharedSubexprs int
	// InternedSubtrees is the number of distinct expression subtrees
	// hash-consed by the compiler; NodeCount / InternedSubtrees > 1
	// would mean sharing is off or contexts diverge.
	InternedSubtrees int
}

// Introspect returns the current health gauges.  Like the accessors it
// bundles, it must not run concurrently with Publish.
func (d *Detector) Introspect() IntrospectStats {
	return IntrospectStats{
		StateSize:        d.StateSize(),
		NodeCount:        len(d.nodes),
		PendingTimers:    d.timers.Len(),
		Dropped:          d.dropped,
		OrderViolations:  d.orderViolations,
		SharedSubexprs:   len(d.shared),
		InternedSubtrees: d.interner.Len(),
	}
}
