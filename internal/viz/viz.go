// Package viz renders the paper's two figures as ASCII diagrams:
//
//   - Figure 1: the open and closed intervals formed by two primitive
//     timestamps on the global time line;
//   - Figure 2: the two-dimensional site × global-time grid showing, for
//     a reference composite timestamp T(e), which region of the grid is
//     happen-before (<), concurrent (~), happen-after (>), weaker-≤ (⪯)
//     or incomparable (≬) with it.
//
// cmd/figures prints these renderings; tests assert their content cell by
// cell against the core relations so the pictures cannot drift from the
// semantics.
package viz

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Cell symbols used in the Figure 2 grid.
const (
	SymBefore       = '<'
	SymAfter        = '>'
	SymConcurrent   = '~'
	SymIncomparable = 'X'
	SymComponent    = '*'
)

// ClassifyCell returns the Figure 2 symbol for a probe stamp at (site,
// global) against the reference composite timestamp e.  The probe is a
// mid-granule singleton so same-site comparisons behave generically;
// probes coinciding with a component of e are marked SymComponent.
func ClassifyCell(e core.SetStamp, site core.SiteID, global int64, ratio int64) rune {
	probe := core.Stamp{Site: site, Global: global, Local: global*ratio + ratio/2}
	for _, comp := range e {
		if comp.Site == site && comp.Global == global { // grid-cell identity, not a temporal relation
			return SymComponent
		}
	}
	f := core.Singleton(probe)
	switch f.Relate(e) {
	case core.SetBefore:
		return SymBefore
	case core.SetAfter:
		return SymAfter
	case core.SetConcurrent:
		return SymConcurrent
	default:
		return SymIncomparable
	}
}

// Fig2Options frames the grid.
type Fig2Options struct {
	Sites        []core.SiteID
	GMin, GMax   int64
	Ratio        int64
	MarkWeakLE   bool // annotate the ⪯ frontier row
	ReferenceLbl string
}

// RenderFig2 renders the classification grid for the reference stamp e.
func RenderFig2(e core.SetStamp, opt Fig2Options) string {
	if opt.Ratio <= 0 {
		opt.Ratio = 10
	}
	var b strings.Builder
	lbl := opt.ReferenceLbl
	if lbl == "" {
		lbl = "T(e)"
	}
	fmt.Fprintf(&b, "Figure 2: temporal regions of %s = %s\n", lbl, e)
	fmt.Fprintf(&b, "legend: %c before  %c concurrent  %c after  %c incomparable  %c component\n\n",
		SymBefore, SymConcurrent, SymAfter, SymIncomparable, SymComponent)

	// Header: global time axis.
	width := 0
	for _, s := range opt.Sites {
		if len(string(s)) > width {
			width = len(string(s))
		}
	}
	fmt.Fprintf(&b, "%*s |", width, "g_g")
	for g := opt.GMin; g <= opt.GMax; g++ {
		fmt.Fprintf(&b, "%3d", g)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s-+%s\n", strings.Repeat("-", width), strings.Repeat("-", 3*int(opt.GMax-opt.GMin+1)))

	for _, site := range opt.Sites {
		fmt.Fprintf(&b, "%*s |", width, string(site))
		for g := opt.GMin; g <= opt.GMax; g++ {
			fmt.Fprintf(&b, "  %c", ClassifyCell(e, site, g, opt.Ratio))
		}
		b.WriteByte('\n')
	}

	if opt.MarkWeakLE {
		fmt.Fprintf(&b, "\n⪯ region: every cell marked %c or %c satisfies T(cell) ⪯ %s\n",
			SymBefore, SymConcurrent, lbl)
	}
	return b.String()
}

// RenderFig1 renders the open and closed interval windows of two
// cross-site primitive stamps on the global time line, with per-tick
// membership markers computed from the actual relations (not from the
// window arithmetic, so the picture tests the derivation).
func RenderFig1(a, b core.Stamp, ratio int64) string {
	if ratio <= 0 {
		ratio = 10
	}
	open := core.OpenWindow(a, b)
	closed := core.ClosedWindow(a, b)
	lo := a.Global - 3
	hi := b.Global + 3

	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 1: intervals of T(e1) = %s and T(e2) = %s\n\n", a, b)
	fmt.Fprintf(&sb, "%-8s", "g_g:")
	for g := lo; g <= hi; g++ {
		fmt.Fprintf(&sb, "%4d", g)
	}
	sb.WriteByte('\n')

	row := func(name string, member func(core.Stamp) bool) {
		fmt.Fprintf(&sb, "%-8s", name)
		for g := lo; g <= hi; g++ {
			probe := core.Stamp{Site: "probe", Global: g, Local: g*ratio + ratio/2}
			mark := "   ."
			if member(probe) {
				mark = "   #"
			}
			sb.WriteString(mark)
		}
		sb.WriteByte('\n')
	}
	row("open:", func(p core.Stamp) bool { return p.InOpen(a, b) })
	row("closed:", func(p core.Stamp) bool { return p.InClosed(a, b) })

	fmt.Fprintf(&sb, "\nopen   (T(e1), T(e2)) = %s (paper: {g1+2g .. g2-2g})\n", open)
	fmt.Fprintf(&sb, "closed [T(e1), T(e2)] = %s (paper: {g1-1g .. g2+1g})\n", closed)
	return sb.String()
}
