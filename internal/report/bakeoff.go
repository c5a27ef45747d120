package report

import (
	"fmt"
	"html/template"
	"strings"

	"fattree/internal/schema"
)

// bakeoffLevelView is one fault-storm rung: its engine rows render as
// one comparison table under the rung's heading.
type bakeoffLevelView struct {
	Level       string
	FailedLinks string
	Rows        []bakeoffRowView
}

type bakeoffRowView struct {
	Engine, Routability, Unroutable, BrokenPairs string
	MaxHSD, AvgMaxHSD, ContentionFree            string
	RerouteMS, MaxQueue, Err                     string
}

// bakeoffEngineColors cycles per-engine curve colors (categorical,
// color-blind-safe-ish palette).
var bakeoffEngineColors = []string{
	"#1e40af", "#b45309", "#15803d", "#b91c1c", "#7c3aed", "#0e7490", "#be185d", "#4d7c0f",
}

// buildBakeoffSection folds a bake-off verdict into the report: a
// summary line, per-level comparison tables and the degradation curve
// (routability per engine across the storm).
func buildBakeoffSection(doc *schema.BakeoffDoc, notes *[]string) (string, template.HTML, []bakeoffLevelView) {
	if len(doc.Levels) == 0 {
		*notes = append(*notes, "bake-off has no fault levels: section omitted")
		return "", "", nil
	}
	head := fmt.Sprintf("%s, %d hosts, seed %d, %d engine(s) x %d fault level(s)",
		doc.Topology, doc.Hosts, doc.Seed, len(doc.Engines), len(doc.Levels))
	var levels []bakeoffLevelView
	for _, l := range doc.Levels {
		lv := bakeoffLevelView{Level: l.Name, FailedLinks: fmt.Sprintf("%d", len(l.FailedLinks))}
		for _, e := range l.Engines {
			row := bakeoffRowView{Engine: e.Engine, Err: e.Err}
			if e.Err == "" {
				row.Routability = f(e.RoutabilityPct)
				row.Unroutable = fmt.Sprintf("%d", e.Unroutable)
				row.BrokenPairs = fmt.Sprintf("%d", e.BrokenPairs)
				row.MaxHSD = fmt.Sprintf("%d", e.MaxHSD)
				row.AvgMaxHSD = f(e.AvgMaxHSD)
				row.ContentionFree = fmt.Sprintf("%v", e.ContentionFree)
				row.RerouteMS = f(float64(e.RerouteUS) / 1e3)
				if e.MaxQueueDepth >= 0 {
					row.MaxQueue = fmt.Sprintf("%d", e.MaxQueueDepth)
				}
			}
			lv.Rows = append(lv.Rows, row)
		}
		levels = append(levels, lv)
	}
	return head, buildBakeoffCurve(doc), levels
}

// buildBakeoffCurve plots each engine's routability percentage across
// the storm rungs: flat at 100 is full resilience, a cliff is where an
// engine (or the fabric) gives out. Engines that errored at a rung get
// no point there, so their line visibly breaks.
func buildBakeoffCurve(doc *schema.BakeoffDoc) template.HTML {
	const width, height, left, bottom, top = 640.0, 220.0, 44.0, 34.0, 10.0
	nLevels := len(doc.Levels)
	px := func(i int) float64 {
		if nLevels == 1 {
			return left
		}
		return left + float64(i)/float64(nLevels-1)*(width-left-8)
	}
	py := func(pct float64) float64 { return top + (height-bottom-top)*(1-pct/100) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="routability degradation curves">`,
		f(width), f(height), f(width), f(height))
	// Gridlines at 100/75/50/25/0 percent.
	for _, pct := range []float64{100, 75, 50, 25, 0} {
		y := py(pct)
		fmt.Fprintf(&b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#e5e7eb"/>`,
			f(left), f(y), f(width-8), f(y))
		fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">%s%%</text>`,
			f(left-4), f(y+3), f(pct))
	}
	for ei, info := range doc.Engines {
		color := bakeoffEngineColors[ei%len(bakeoffEngineColors)]
		var pts []string
		for li, l := range doc.Levels {
			for _, e := range l.Engines {
				if e.Engine != info.Name || e.Err != "" {
					continue
				}
				pts = append(pts, f(px(li))+","+f(py(e.RoutabilityPct)))
				fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="%s"><title>%s @ %s: %.2f%% routable</title></circle>`,
					f(px(li)), f(py(e.RoutabilityPct)), color,
					template.HTMLEscapeString(info.Name), template.HTMLEscapeString(l.Name), e.RoutabilityPct)
			}
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`,
				color, strings.Join(pts, " "))
		}
		// Legend swatches along the top edge.
		lx := left + float64(ei)*140
		fmt.Fprintf(&b, `<rect x="%s" y="0" width="10" height="8" fill="%s"/>`, f(lx), color)
		fmt.Fprintf(&b, `<text x="%s" y="8" class="lbl">%s</text>`, f(lx+13), template.HTMLEscapeString(info.Name))
	}
	// Level labels on the x axis.
	for li, l := range doc.Levels {
		anchor := "middle"
		if li == 0 {
			anchor = "start"
		} else if li == nLevels-1 {
			anchor = "end"
		}
		fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="%s">%s</text>`,
			f(px(li)), f(height-bottom+14), anchor, template.HTMLEscapeString(l.Name))
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}
