package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// SpanKind names a lineage stage: the life of an occurrence is raise →
// send → recv → release → detect → publish, and each span event marks
// its crossing of one of those boundaries.
type SpanKind uint8

const (
	// KindRaise marks a primitive or composite occurrence entering the
	// system at its origin site.
	KindRaise SpanKind = iota
	// KindSend marks an occurrence leaving a site inside a transport
	// envelope (Peer is the destination).
	KindSend
	// KindRecv marks an occurrence arriving at a consumer site (Peer is
	// the origin).
	KindRecv
	// KindRelease marks the reorder buffer handing an occurrence to the
	// detectors once the site watermark passes it.
	KindRelease
	// KindDetect marks a composite detection; Links carries the span IDs
	// of the constituent occurrences, Detail the Max-set timestamp.
	KindDetect
	// KindPublish marks a detection reaching subscribers (and, for
	// hierarchical definitions, re-entering transport as a constituent).
	KindPublish
	// KindNote is free-form annotation (stage summaries, test
	// breadcrumbs) — mostly used through FlightRecorder.Note.
	KindNote
)

// String returns the lowercase stage name.
func (k SpanKind) String() string {
	switch k {
	case KindRaise:
		return "raise"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindRelease:
		return "release"
	case KindDetect:
		return "detect"
	case KindPublish:
		return "publish"
	case KindNote:
		return "note"
	}
	return "unknown"
}

// SpanEvent is one point on an occurrence's lineage.  At is simulated
// time in microticks; ID is the tracer-assigned span ID of the subject
// occurrence (IDs are assigned in emission order on the crank goroutine,
// so they are deterministic).
type SpanEvent struct {
	ID   uint64
	At   int64
	Kind SpanKind
	// Site is where the event happened; Peer is the other side of a
	// send/recv hop ("" otherwise).
	Site string
	Peer string
	// SiteRef is Site's dense roster index plus one (0 = no site / not
	// interned).  Emitters inside a sealed system set it so roster-aware
	// sinks (ChromeTrace.UseRoster, FlightRecorder.UseRoster) can key
	// their per-site state by integer instead of hashing the string.
	// Text sinks ignore it — span logs print only the string, so
	// determinism artifacts are unchanged.
	SiteRef int32
	// Type is the event type of the subject occurrence.
	Type string
	// Detail carries the composite timestamp (raise/detect) or other
	// stage-specific context.
	Detail string
	// Links are span IDs of related occurrences: for KindDetect, the
	// constituents whose Max-set formed this detection's timestamp.
	Links []uint64
}

// Sink consumes span events.  Implementations must not retain ev.Links
// past the call (tracers may reuse the slice).
type Sink interface {
	Span(ev SpanEvent)
}

// spanKey identifies a traced subject: the subject's identity (pointer)
// plus its pool generation.  Pooled occurrences recycle their storage, so
// a bare pointer would alias spans of unrelated events; stamping the key
// with event.(*Occurrence).Gen() mirrors the pool's own use-after-put
// check and makes each (slot, generation) lifetime a distinct span.
// Unpooled subjects pass gen 0 — the key still holds the pointer, so the
// GC cannot recycle the address underneath the mapping.
type spanKey struct {
	subject any
	gen     uint32
}

// Tracer assigns span IDs to occurrences and forwards events to a sink.
// A nil *Tracer no-ops everywhere, so instrumented code guards one
// pointer check per span point.  A tracer with a nil sink is equally
// inert — ID assignment is skipped along with emission, so wiring the
// tracer in with sinks detached costs only the call-site branches and
// stack-built events (the "enabled-but-unsunk" overhead mode the smoke
// benchmark measures).
//
// Not safe for concurrent use — all span points sit on the crank
// goroutine, which is exactly what makes the IDs deterministic.
type Tracer struct {
	sink Sink
	ids  map[spanKey]uint64
	next uint64
	// links is a scratch buffer handed out by LinkBuf so KindDetect
	// events can carry constituent IDs without a per-event allocation.
	links []uint64
}

// NewTracer returns a tracer feeding sink (which may be nil).
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, ids: make(map[spanKey]uint64)}
}

// Active reports whether Emit would reach a sink.  Use it to skip
// building expensive Detail strings.
func (t *Tracer) Active() bool {
	return t != nil && t.sink != nil
}

// ID returns the span ID for one lifetime of subject, assigning the next
// sequential ID on first sight.  Subjects are compared by identity
// (pointer) plus gen — the occurrence's pool generation
// (event.(*Occurrence).Gen(), 0 for unpooled subjects) — so the same
// *event.Occurrence keeps one ID across its pipeline stages while a
// recycled slot starts a fresh span instead of inheriting the previous
// tenant's.  Returns 0 on a nil or sinkless tracer; real IDs start at 1.
//
// The mapping is append-only: stale (slot, generation) keys from
// completed lifetimes are retained, so a tracing run's working set grows
// with the number of traced occurrences.  Prefer bounded runs or a
// Sampler when tracing a long-lived system.
func (t *Tracer) ID(subject any, gen uint32) uint64 {
	if t == nil || t.sink == nil {
		return 0
	}
	k := spanKey{subject: subject, gen: gen}
	if id, ok := t.ids[k]; ok {
		return id
	}
	t.next++
	t.ids[k] = t.next
	return t.next
}

// LinkBuf returns the tracer's scratch link buffer, emptied.  Append
// constituent IDs to it and pass it as SpanEvent.Links; it is valid
// until the next LinkBuf call.
func (t *Tracer) LinkBuf() []uint64 {
	if t == nil {
		return nil
	}
	t.links = t.links[:0]
	return t.links
}

// KeepLinkBuf stores the (possibly grown) buffer back for reuse.
func (t *Tracer) KeepLinkBuf(buf []uint64) {
	if t != nil {
		t.links = buf
	}
}

// Emit forwards the event to the sink, if any.
func (t *Tracer) Emit(ev SpanEvent) {
	if t == nil || t.sink == nil {
		return
	}
	t.sink.Span(ev)
}

// MultiSink fans one event out to several sinks in order.
type MultiSink []Sink

// Span implements Sink.
func (m MultiSink) Span(ev SpanEvent) {
	for _, s := range m {
		s.Span(ev)
	}
}

// SpanLog is a line-oriented span sink: one `key=value` record per
// event, human-greppable and trivially diffable.  Write errors are
// sticky; check Err once at the end.
type SpanLog struct {
	w   io.Writer
	err error
	buf []byte
}

// NewSpanLog returns a span log writing to w.
func NewSpanLog(w io.Writer) *SpanLog {
	return &SpanLog{w: w}
}

// Span implements Sink.
func (l *SpanLog) Span(ev SpanEvent) {
	if l.err != nil {
		return
	}
	b := l.buf[:0]
	b = append(b, "at="...)
	b = strconv.AppendInt(b, ev.At, 10)
	b = append(b, " kind="...)
	b = append(b, ev.Kind.String()...)
	b = append(b, " id="...)
	b = strconv.AppendUint(b, ev.ID, 10)
	if ev.Site != "" {
		b = append(b, " site="...)
		b = append(b, ev.Site...)
	}
	if ev.Peer != "" {
		b = append(b, " peer="...)
		b = append(b, ev.Peer...)
	}
	if ev.Type != "" {
		b = append(b, " type="...)
		b = append(b, ev.Type...)
	}
	if len(ev.Links) > 0 {
		b = append(b, " links="...)
		for i, id := range ev.Links {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
	}
	if ev.Detail != "" {
		b = append(b, " detail="...)
		b = strconv.AppendQuote(b, ev.Detail)
	}
	b = append(b, '\n')
	l.buf = b
	_, l.err = l.w.Write(b)
}

// Err returns the first write error, if any.
func (l *SpanLog) Err() error { return l.err }

// ChromeTrace streams span events as Chrome trace_event JSON (the format
// chrome://tracing and Perfetto load): each span event becomes an
// instant event on a per-site track, with the span ID, links and detail
// in args.  Microticks are written as the microsecond timestamps the
// format expects, so one trace-viewer microsecond is one simulated
// microtick.  Call Close to terminate the JSON array.
type ChromeTrace struct {
	w     io.Writer
	err   error
	wrote bool
	// tids maps site → synthetic thread ID, assigned in first-seen
	// order; tidNames remembers them for ordering metadata.
	tids  map[string]int
	order []string
	// refTids, once UseRoster runs, maps SpanEvent.SiteRef → tid (index 0
	// is the "(system)" track), making the per-span tid lookup a slice
	// index instead of a string hash.
	refTids []int
}

// NewChromeTrace returns a Chrome trace writer targeting w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	_, err := io.WriteString(w, "[")
	return &ChromeTrace{w: w, err: err, tids: make(map[string]int)}
}

// UseRoster pre-assigns every site's synthetic thread ID in roster
// (canonical ID) order — tid i+1 for roster index i, with the "(system)"
// track after them — and emits all the thread_name metadata up front.
// Track numbering then depends only on the sealed membership, never on
// which site happens to speak first, so traces from different runs or
// transport modes line up track-for-track.  Call it
// before the first span; events carrying a SiteRef skip the string map
// entirely afterwards.
func (c *ChromeTrace) UseRoster(r *core.Roster) {
	c.refTids = make([]int, r.Len()+1)
	for i := 0; i < r.Len(); i++ {
		c.refTids[i+1] = c.tid(string(r.ID(core.Site(i))))
	}
	c.refTids[0] = c.tid("")
}

// tid returns the synthetic thread ID for a site, emitting a
// thread_name metadata record on first sight so viewers label the
// track with the site name.
func (c *ChromeTrace) tid(site string) int {
	if site == "" {
		site = "(system)"
	}
	if id, ok := c.tids[site]; ok {
		return id
	}
	id := len(c.order) + 1
	c.tids[site] = id
	c.order = append(c.order, site)
	c.record(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, id, site))
	return id
}

// tidFor resolves an event's track: the dense SiteRef path when a roster
// is attached, the first-seen string map otherwise.
func (c *ChromeTrace) tidFor(ev SpanEvent) int {
	if c.refTids != nil {
		if ev.SiteRef > 0 && int(ev.SiteRef) < len(c.refTids) {
			return c.refTids[ev.SiteRef]
		}
		if ev.Site == "" {
			return c.refTids[0]
		}
	}
	return c.tid(ev.Site)
}

// record writes one JSON object into the stream.
func (c *ChromeTrace) record(obj string) {
	if c.err != nil {
		return
	}
	sep := ",\n"
	if !c.wrote {
		sep = "\n"
		c.wrote = true
	}
	_, c.err = io.WriteString(c.w, sep+obj)
}

// Span implements Sink.
func (c *ChromeTrace) Span(ev SpanEvent) {
	if c.err != nil {
		return
	}
	tid := c.tidFor(ev)
	var args strings.Builder
	fmt.Fprintf(&args, `{"id":%d`, ev.ID)
	if ev.Peer != "" {
		fmt.Fprintf(&args, `,"peer":%q`, ev.Peer)
	}
	if len(ev.Links) > 0 {
		args.WriteString(`,"links":[`)
		for i, id := range ev.Links {
			if i > 0 {
				args.WriteByte(',')
			}
			fmt.Fprintf(&args, "%d", id)
		}
		args.WriteByte(']')
	}
	if ev.Detail != "" {
		fmt.Fprintf(&args, `,"stamp":%q`, ev.Detail)
	}
	args.WriteByte('}')
	name := ev.Kind.String()
	if ev.Type != "" {
		name += " " + ev.Type
	}
	c.record(fmt.Sprintf(`{"name":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%d,"args":%s}`,
		name, tid, ev.At, args.String()))
}

// Close terminates the JSON array.  The trace is not loadable before
// Close.
func (c *ChromeTrace) Close() error {
	if c.err != nil {
		return c.err
	}
	_, c.err = io.WriteString(c.w, "\n]\n")
	return c.err
}

// Err returns the first write error, if any.
func (c *ChromeTrace) Err() error { return c.err }

// sortedSites returns map keys in sorted order (export-path helper; the
// hot path never iterates maps).
func sortedSites[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
