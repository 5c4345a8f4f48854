package obs

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// ring is a bounded span buffer: once full, the oldest event is
// overwritten and counted as dropped.
type ring struct {
	evs     []SpanEvent
	start   int
	n       int
	dropped uint64
}

func (r *ring) push(ev SpanEvent) {
	if len(ev.Links) > 0 {
		// Sinks must not retain Links; the ring does, so copy.
		ev.Links = append([]uint64(nil), ev.Links...)
	}
	if r.n < len(r.evs) {
		r.evs[(r.start+r.n)%len(r.evs)] = ev
		r.n++
		return
	}
	r.evs[r.start] = ev
	r.start = (r.start + 1) % len(r.evs)
	r.dropped++
}

// FlightRecorder is a span sink keeping the most recent events in a
// bounded ring per site, so a failing test or a distsim run can dump the
// last moments before the anomaly without having logged everything.
// Events with an empty Site land on the "(system)" ring.
//
// With UseRoster attached, rings are keyed by dense roster index — the
// per-span path is a slice index, and both a SiteRef-carrying span and a
// Note addressed by site name land on the same ring.  Off-roster site
// strings keep falling back to the name-keyed map.
type FlightRecorder struct {
	per   int
	rings map[string]*ring
	// roster and dense, once UseRoster runs, key rings by SiteRef
	// (dense[0] is the "(system)" ring, dense[i+1] roster site i).
	roster *core.Roster
	dense  []*ring
}

// NewFlightRecorder returns a recorder keeping up to perSite events per
// site ring (minimum 1).
func NewFlightRecorder(perSite int) *FlightRecorder {
	if perSite < 1 {
		perSite = 1
	}
	return &FlightRecorder{per: perSite, rings: make(map[string]*ring)}
}

// UseRoster switches the recorder to dense ring keying: one slot per
// roster member plus the system ring, addressed by SpanEvent.SiteRef (or
// by roster lookup for Notes and hand-built spans that carry only the
// site name).  Call it before the first span.
func (f *FlightRecorder) UseRoster(r *core.Roster) {
	f.roster = r
	f.dense = make([]*ring, r.Len()+1)
}

// Span implements Sink.
func (f *FlightRecorder) Span(ev SpanEvent) {
	if f.dense != nil {
		ref := int(ev.SiteRef)
		if ref == 0 && ev.Site != "" {
			if s := f.roster.Site(core.SiteID(ev.Site)); s != core.NoSite {
				ref = int(s) + 1
			} else {
				ref = -1 // off-roster name: map fallback below
			}
		}
		if ref >= 0 && ref < len(f.dense) {
			r := f.dense[ref]
			if r == nil {
				r = &ring{evs: make([]SpanEvent, f.per)}
				f.dense[ref] = r
			}
			r.push(ev)
			return
		}
	}
	site := ev.Site
	if site == "" {
		site = "(system)"
	}
	r := f.rings[site]
	if r == nil {
		r = &ring{evs: make([]SpanEvent, f.per)}
		f.rings[site] = r
	}
	r.push(ev)
}

// Note records a free-form breadcrumb (stage summaries, test context) on
// the given site's ring — the same dense ring the site's spans occupy
// when a roster is attached.
func (f *FlightRecorder) Note(site string, at int64, text string) {
	f.Span(SpanEvent{At: at, Kind: KindNote, Site: site, Detail: text})
}

// Len returns the number of buffered events across all rings.
func (f *FlightRecorder) Len() int {
	n := 0
	for _, r := range f.rings {
		n += r.n
	}
	for _, r := range f.dense {
		if r != nil {
			n += r.n
		}
	}
	return n
}

// Dump writes the buffered events grouped by site (sites sorted, events
// oldest first) in the SpanLog line format, with a header per site
// noting how many older events the ring dropped.
func (f *FlightRecorder) Dump(w io.Writer) error {
	named := make(map[string]*ring, len(f.rings)+len(f.dense))
	for site, r := range f.rings { // collected into a map, rendered in sortedSites order
		named[site] = r
	}
	for ref, r := range f.dense {
		if r == nil {
			continue
		}
		site := "(system)"
		if ref > 0 {
			site = string(f.roster.ID(core.Site(ref - 1)))
		}
		named[site] = r
	}
	for _, site := range sortedSites(named) {
		r := named[site]
		if _, err := fmt.Fprintf(w, "-- site %s: last %d span(s), %d dropped --\n", site, r.n, r.dropped); err != nil {
			return err
		}
		l := NewSpanLog(w)
		for i := 0; i < r.n; i++ {
			l.Span(r.evs[(r.start+i)%len(r.evs)])
		}
		if err := l.Err(); err != nil {
			return err
		}
	}
	return nil
}
