package report

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"sort"
	"strings"

	"fattree/internal/schema"
)

// HTMLOptions configures RenderHTML.
type HTMLOptions struct {
	// Title heads the page; a default is derived from the inputs when
	// empty.
	Title string
	// MetricsFile / TraceFile / LoadFile / EventsFile / BakeoffFile name
	// the inputs in the provenance lines.
	MetricsFile, TraceFile, LoadFile, EventsFile, BakeoffFile string
	// Generated is a freeform provenance stamp (e.g. a timestamp);
	// omitted when empty so golden tests stay byte-stable.
	Generated string
	// MaxHeatmapRows caps each heatmap's channel rows (default 64); the
	// busiest (deepest) channels win and truncation is announced in the
	// notes.
	MaxHeatmapRows int
}

// Inputs bundles the optional data sources of one report. Any field
// may be nil; the report shows what it has. Probes and Trace are core
// (their absence is noted), while Loads and Events are opt-in extras
// that render only when present.
type Inputs struct {
	Probes *ProbeData
	Trace  *TraceData
	// Loads carries load sweeps — e.g. the JSON and binary protocols
	// over the same daemon — each rendered as its own curve and table
	// section.
	Loads  []*schema.LoadDoc
	Events *schema.EventsDoc
	// Bakeoff is a parsed fattree-bakeoff/v1 verdict (ftbakeoff -o):
	// the engine comparison tables and degradation curves.
	Bakeoff *schema.BakeoffDoc
}

// RenderHTML renders one self-contained HTML report — no external
// scripts, styles or images, just inline CSS and SVG — from parsed
// probe, trace, load-sweep and fabric-event inputs. Output is
// deterministic for given inputs, which the golden test pins.
func RenderHTML(w io.Writer, in Inputs, opt HTMLOptions) error {
	if opt.MaxHeatmapRows <= 0 {
		opt.MaxHeatmapRows = 64
	}
	v := buildView(in, opt)
	return pageTmpl.Execute(w, v)
}

// htmlView is the template's data: pre-rendered SVG fragments plus
// tables, so the template stays purely structural.
type htmlView struct {
	Title      string
	Generated  string
	Inputs     []string
	Schemas    []string
	Heatmap    template.HTML
	Timeline   template.HTML
	Sparks     []sparkView
	Hists      []histView
	Counters   []kvView
	Gauges     []kvView
	LoadSects  []loadSectionView
	EventStrip template.HTML
	Events     []eventView

	QueueHeatmap template.HTML
	HotLinks     []hotLinkView

	BakeoffHead   string
	BakeoffCurve  template.HTML
	BakeoffLevels []bakeoffLevelView

	Notes []string
}

type hotLinkView struct {
	Channel, MaxQueue, BusyPct string
}

type loadLevelView struct {
	Level                    string
	RPS, Routes              string
	Sent, Errors             string
	P50, P95, P99, ServerP99 string
}

// loadSectionView is one sweep document's slice of the report: a curve
// plus its level table, titled by what and how the sweep measured.
type loadSectionView struct {
	Title  string
	Curve  template.HTML
	Levels []loadLevelView
}

type eventView struct {
	Seq, Offset, Kind, Epoch, Engine, Duration, Outcome, Detail string
}

type sparkView struct {
	Name   string
	Legend string
	SVG    template.HTML
}

type histView struct {
	Name                string
	Count               string
	Mean, P50, P95, P99 string
}

type kvView struct {
	Name  string
	Value string
}

func buildView(in Inputs, opt HTMLOptions) *htmlView {
	probes, trace := in.Probes, in.Trace
	v := &htmlView{Title: opt.Title, Generated: opt.Generated}
	if v.Title == "" {
		v.Title = "fat-tree run report"
	}
	if opt.MetricsFile != "" {
		v.Inputs = append(v.Inputs, "metrics: "+opt.MetricsFile)
	}
	if opt.TraceFile != "" {
		v.Inputs = append(v.Inputs, "trace: "+opt.TraceFile)
	}
	if opt.LoadFile != "" {
		v.Inputs = append(v.Inputs, "load: "+opt.LoadFile)
	}
	if opt.EventsFile != "" {
		v.Inputs = append(v.Inputs, "events: "+opt.EventsFile)
	}
	if opt.BakeoffFile != "" {
		v.Inputs = append(v.Inputs, "bake-off: "+opt.BakeoffFile)
	}
	if probes != nil && probes.Schema != "" {
		v.Schemas = append(v.Schemas, probes.Schema)
	}
	if trace != nil && trace.Schema != "" {
		v.Schemas = append(v.Schemas, trace.Schema)
	}
	if len(in.Loads) > 0 && in.Loads[0] != nil && in.Loads[0].Schema != "" {
		v.Schemas = append(v.Schemas, in.Loads[0].Schema)
	}
	if in.Events != nil && in.Events.Schema != "" {
		v.Schemas = append(v.Schemas, in.Events.Schema)
	}
	if in.Bakeoff != nil && in.Bakeoff.Schema != "" {
		v.Schemas = append(v.Schemas, in.Bakeoff.Schema)
	}

	if probes == nil {
		v.Notes = append(v.Notes, "no probe stream: heatmap, sparklines and metric tables omitted")
	} else {
		if probes.Malformed > 0 {
			v.Notes = append(v.Notes, fmt.Sprintf("%d malformed line(s) skipped in the probe stream", probes.Malformed))
		}
		v.Heatmap = buildHeatmap(probes.Get(utilHeatmap.series), utilHeatmap, opt.MaxHeatmapRows, &v.Notes)
		// Only simulator streams carry buffer_pkts (fthsd's has no
		// channels), so its absence goes unnoted.
		if s := probes.Get(queueHeatmap.series); s != nil {
			v.QueueHeatmap = buildHeatmap(s, queueHeatmap, opt.MaxHeatmapRows, &v.Notes)
		}
		v.HotLinks = buildHotLinks(probes.Rollup)
		v.Sparks = buildSparks(probes)
		v.Hists, v.Counters, v.Gauges = buildSnapshotTables(probes)
	}
	if trace == nil {
		v.Notes = append(v.Notes, "no trace file: stage timeline omitted")
	} else {
		v.Timeline = buildTimeline(trace.StageSpans(), &v.Notes)
	}
	// Load and events sections are opt-in: no note when absent, so
	// reports predating them render unchanged.
	for _, ld := range in.Loads {
		if ld == nil {
			continue
		}
		v.LoadSects = append(v.LoadSects, loadSectionView{
			Title:  loadSectionTitle(ld),
			Curve:  buildLoadCurve(ld, &v.Notes),
			Levels: buildLoadTable(ld),
		})
	}
	if in.Events != nil {
		v.EventStrip, v.Events = buildEventSection(in.Events, &v.Notes)
	}
	if in.Bakeoff != nil {
		v.BakeoffHead, v.BakeoffCurve, v.BakeoffLevels = buildBakeoffSection(in.Bakeoff, &v.Notes)
	}
	return v
}

// f formats an SVG coordinate/length with fixed precision, keeping the
// output byte-deterministic.
func f(x float64) string { return strings.TrimSuffix(fmt.Sprintf("%.2f", x), ".00") }

// utilColor maps a utilization in [0,1] to a sequential ramp (near
// white to deep blue); values above 1 clamp to a warning red.
func utilColor(u float64) string {
	if u > 1 {
		return "#b91c1c"
	}
	if u < 0 {
		u = 0
	}
	lerp := func(a, b int) int { return a + int(math.Round(u*float64(b-a))) }
	return fmt.Sprintf("#%02x%02x%02x", lerp(0xf4, 0x1e), lerp(0xf7, 0x40), lerp(0xfa, 0xaf))
}

// heatmap describes one per-channel probe series as a heatmap: which
// series, how its values map onto the color ramp, and the words around
// it.
type heatmap struct {
	series string // probe series, one value per directed channel
	name   string // what the notes call it
	rank   string // what the kept rows are when the row cap cuts
	aria   string // the SVG's aria-label
	cell   string // format of one value in a cell's tooltip
	// scale is the value drawn at the top of the ramp; zero scales to
	// the series' peak (1 when the series is all zero). legend formats
	// the scale into the legend text.
	scale  float64
	legend string
}

var (
	utilHeatmap = heatmap{series: "link_util", name: "heatmap", rank: "busiest",
		aria: "link utilization heatmap", cell: "%.3f",
		scale: 1, legend: "util 0 &#8594; %s (red &gt; 1)"}
	// queueHeatmap draws input-buffer occupancy: a contention-free run
	// renders a flat depth &le; 1 map.
	queueHeatmap = heatmap{series: "buffer_pkts", name: "queue heatmap", rank: "deepest",
		aria: "queue depth heatmap", cell: "depth %.0f",
		legend: "depth 0 &#8594; %s"}
)

// buildHeatmap renders s as a heatmap: one row per directed channel
// (highest peak first, capped at maxRows), one column per probe tick.
func buildHeatmap(s *Series, h heatmap, maxRows int, notes *[]string) template.HTML {
	if s == nil || len(s.Samples) == 0 {
		*notes = append(*notes, fmt.Sprintf("no %s series: %s omitted", h.series, h.name))
		return ""
	}
	nCh := s.Width()
	if nCh == 0 {
		*notes = append(*notes, fmt.Sprintf("%s series has empty samples: %s omitted", h.series, h.name))
		return ""
	}
	// Rank channels by their peak value, keep the highest.
	type ranked struct {
		ch   int
		peak float64
	}
	rk := make([]ranked, nCh)
	for i := range rk {
		rk[i].ch = i
	}
	peak := 0.0
	for _, sm := range s.Samples {
		for i, x := range sm.Values {
			if x > rk[i].peak {
				rk[i].peak = x
			}
			if x > peak {
				peak = x
			}
		}
	}
	scale := h.scale
	if scale == 0 {
		scale = peak
	}
	if scale == 0 {
		scale = 1
	}
	sort.SliceStable(rk, func(i, j int) bool { return rk[i].peak > rk[j].peak })
	rows := nCh
	if rows > maxRows {
		rows = maxRows
		*notes = append(*notes, fmt.Sprintf("%s shows the %d %s of %d directed channels", h.name, rows, h.rank, nCh))
	}
	cols := len(s.Samples)

	const labelW, cellH, legendH = 56.0, 10.0, 26.0
	cellW := math.Max(2, math.Min(18, 820.0/float64(cols)))
	width := labelW + cellW*float64(cols) + 8
	height := cellH*float64(rows) + legendH + 18

	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="%s">`,
		f(width), f(height), f(width), f(height), h.aria)
	cellFmt := `<rect x="%s" y="%s" width="%s" height="%s" fill="%s"><title>ch%d @ %d ps: ` + h.cell + `</title></rect>`
	for r := 0; r < rows; r++ {
		ch := rk[r].ch
		y := float64(r) * cellH
		fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">ch%d</text>`,
			f(labelW-4), f(y+cellH-2), ch)
		for c, sm := range s.Samples {
			x := 0.0
			if ch < len(sm.Values) {
				x = sm.Values[ch]
			}
			fmt.Fprintf(&b, cellFmt,
				f(labelW+float64(c)*cellW), f(y), f(cellW), f(cellH), utilColor(x/scale), ch, sm.T, x)
		}
	}
	// Time axis: first and last tick.
	axisY := cellH*float64(rows) + 12
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl">%d ps</text>`, f(labelW), f(axisY), s.Samples[0].T)
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">%d ps</text>`,
		f(labelW+cellW*float64(cols)), f(axisY), s.Samples[cols-1].T)
	// Color legend.
	ly := axisY + 6
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(&b, `<rect x="%s" y="%s" width="12" height="8" fill="%s"/>`,
			f(labelW+float64(i)*12), f(ly), utilColor(float64(i)/10))
	}
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl">%s</text>`,
		f(labelW+11*12+6), f(ly+8), fmt.Sprintf(h.legend, f(scale)))
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// maxHotLinks caps the hot-links table at the deepest channels.
const maxHotLinks = 16

// buildHotLinks tabulates the rollup's deepest channels. Depth 1 is a
// packet transmitting with nothing queued behind it — only depth > 1
// marks contention, so a contention-free run yields an empty table.
func buildHotLinks(roll *schema.LinkRollup) []hotLinkView {
	if roll == nil {
		return nil
	}
	type ranked struct {
		ch    int
		depth int32
	}
	var rk []ranked
	for ch, d := range roll.MaxQueue {
		if d > 1 {
			rk = append(rk, ranked{ch, d})
		}
	}
	sort.SliceStable(rk, func(i, j int) bool { return rk[i].depth > rk[j].depth })
	if len(rk) > maxHotLinks {
		rk = rk[:maxHotLinks]
	}
	var out []hotLinkView
	for _, r := range rk {
		busy := ""
		if r.ch < len(roll.BusyFrac) {
			busy = f(100 * roll.BusyFrac[r.ch])
		}
		out = append(out, hotLinkView{
			Channel:  fmt.Sprintf("ch%d", r.ch),
			MaxQueue: fmt.Sprintf("%d", r.depth),
			BusyPct:  busy,
		})
	}
	return out
}

// buildTimeline renders the collective stage spans as a single-lane
// timeline.
func buildTimeline(spans []StageSpan, notes *[]string) template.HTML {
	if len(spans) == 0 {
		*notes = append(*notes, "trace has no stage spans: timeline omitted")
		return ""
	}
	end := 0.0
	for _, s := range spans {
		if e := s.Start + s.Dur; e > end {
			end = e
		}
	}
	if end <= 0 {
		end = 1
	}
	const width, barH = 860.0, 22.0
	height := barH + 20
	scale := width / end
	fills := [2]string{"#3b82f6", "#93c5fd"}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="stage timeline">`,
		f(width), f(height), f(width), f(height))
	for i, s := range spans {
		x, w := s.Start*scale, s.Dur*scale
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, `<rect x="%s" y="0" width="%s" height="%s" fill="%s"><title>%s: %s&#8211;%s &#181;s (%.0f messages)</title></rect>`,
			f(x), f(w), f(barH), fills[i%2], template.HTMLEscapeString(s.Name), f(s.Start), f(s.Start+s.Dur), s.Messages)
		if w >= 34 {
			fmt.Fprintf(&b, `<text x="%s" y="%s" class="bar">%s</text>`,
				f(x+3), f(barH-6), template.HTMLEscapeString(strings.TrimPrefix(s.Name, "stage ")))
		}
	}
	fmt.Fprintf(&b, `<text x="0" y="%s" class="lbl">0 &#181;s</text>`, f(barH+14))
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">%s &#181;s</text>`, f(width), f(barH+14), f(end))
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// buildLoadCurve plots the sweep's latency tail against achieved
// throughput: client p99 (solid) and server histogram p99 (dashed) per
// level.
func buildLoadCurve(load *schema.LoadDoc, notes *[]string) template.HTML {
	if len(load.Levels) == 0 {
		*notes = append(*notes, "load sweep has no levels: curve omitted")
		return ""
	}
	const width, height, left, bottom = 640.0, 200.0, 56.0, 22.0
	maxX, maxY := 0.0, 0.0
	for _, l := range load.Levels {
		if l.AchievedRPS > maxX {
			maxX = l.AchievedRPS
		}
		for _, y := range []float64{l.P99US, l.ServerP99US} {
			if y > maxY {
				maxY = y
			}
		}
	}
	if maxX <= 0 {
		maxX = 1
	}
	if maxY <= 0 {
		maxY = 1
	}
	px := func(rps float64) float64 { return left + rps/maxX*(width-left-8) }
	py := func(us float64) float64 { return (height - bottom) * (1 - us/maxY) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="p99 latency vs offered load">`,
		f(width), f(height), f(width), f(height))
	lines := []struct {
		color, dash string
		y           func(schema.LoadLevel) float64
	}{
		{"#1e40af", "", func(l schema.LoadLevel) float64 { return l.P99US }},
		{"#b45309", "4 3", func(l schema.LoadLevel) float64 { return l.ServerP99US }},
	}
	for _, ln := range lines {
		var pts []string
		for _, l := range load.Levels {
			pts = append(pts, f(px(l.AchievedRPS))+","+f(py(ln.y(l))))
		}
		dash := ""
		if ln.dash != "" {
			dash = ` stroke-dasharray="` + ln.dash + `"`
		}
		fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5"%s points="%s"/>`,
			ln.color, dash, strings.Join(pts, " "))
		for _, l := range load.Levels {
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="2.5" fill="%s"><title>%s: %s req/s, p99 %s &#181;s</title></circle>`,
				f(px(l.AchievedRPS)), f(py(ln.y(l))), ln.color,
				template.HTMLEscapeString(loadLevelLabel(l)), f(l.AchievedRPS), f(ln.y(l)))
		}
	}
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl">0 req/s</text>`, f(left), f(height-8))
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">%s req/s</text>`, f(width-8), f(height-8), f(maxX))
	fmt.Fprintf(&b, `<text x="2" y="10" class="lbl">%s &#181;s</text>`, f(maxY))
	fmt.Fprintf(&b, `<text x="%s" y="10" class="lbl">client p99 (solid) vs server p99 (dashed)</text>`, f(left))
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// loadSectionTitle names one sweep's report section by protocol and
// endpoint, so JSON and binary curves over the same daemon read apart.
func loadSectionTitle(ld *schema.LoadDoc) string {
	title := "Load curve"
	if ld.Endpoint != "" {
		title += " — " + ld.Endpoint
	}
	switch {
	case ld.Protocol == "binary" && ld.Batch > 1:
		title += fmt.Sprintf(" (binary, batch %d)", ld.Batch)
	case ld.Protocol != "":
		title += " (" + ld.Protocol + ")"
	}
	return title
}

func loadLevelLabel(l schema.LoadLevel) string {
	if l.Mode == "open" {
		return fmt.Sprintf("open %s/s", f(l.OfferedRPS))
	}
	return fmt.Sprintf("closed c=%d", l.Concurrency)
}

func buildLoadTable(load *schema.LoadDoc) []loadLevelView {
	var out []loadLevelView
	for _, l := range load.Levels {
		routes := l.RoutesRPS
		if routes == 0 {
			routes = l.AchievedRPS // one route per request (JSON, batch 1)
		}
		out = append(out, loadLevelView{
			Level:     loadLevelLabel(l),
			RPS:       f(l.AchievedRPS),
			Routes:    f(routes),
			Sent:      fmt.Sprintf("%d", l.Sent),
			Errors:    fmt.Sprintf("%d", l.Errors),
			P50:       f(l.P50US),
			P95:       f(l.P95US),
			P99:       f(l.P99US),
			ServerP99: f(l.ServerP99US),
		})
	}
	return out
}

// eventColors keys the event strip; unknown kinds fall back to grey.
var eventColors = map[string]string{
	schema.EvFault:       "#b91c1c",
	schema.EvRevive:      "#15803d",
	schema.EvFaultRandom: "#b91c1c",
	schema.EvAlloc:       "#7c3aed",
	schema.EvFree:        "#7c3aed",
	schema.EvReroute:     "#1d4ed8",
	schema.EvValidate:    "#0e7490",
	schema.EvSwap:        "#ca8a04",
}

// maxEventRows caps the event table; truncation is announced in the
// notes, never silent.
const maxEventRows = 256

// buildEventSection renders the fabric event journal: a time strip of
// colored markers plus the record table (newest records win the cap).
func buildEventSection(events *schema.EventsDoc, notes *[]string) (template.HTML, []eventView) {
	evs := events.Events
	if events.Dropped > 0 {
		*notes = append(*notes, fmt.Sprintf("event journal dropped %d older record(s) at its ring capacity", events.Dropped))
	}
	if len(evs) == 0 {
		*notes = append(*notes, "event journal is empty: fabric timeline omitted")
		return "", nil
	}
	t0 := evs[0].TimeUnixNS
	spanMS := float64(evs[len(evs)-1].TimeUnixNS-t0) / 1e6
	if spanMS <= 0 {
		spanMS = 1
	}
	const width, barH = 860.0, 20.0
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="fabric event timeline">`,
		f(width), f(barH+16), f(width), f(barH+16))
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%s" height="%s" fill="#f3f4f6"/>`, f(width), f(barH))
	for _, ev := range evs {
		offMS := float64(ev.TimeUnixNS-t0) / 1e6
		color, ok := eventColors[ev.Kind]
		if !ok {
			color = "#6b7280"
		}
		fmt.Fprintf(&b, `<rect x="%s" y="1" width="3" height="%s" fill="%s"><title>#%d %s @ +%s ms (epoch %d): %s</title></rect>`,
			f(offMS/spanMS*(width-3)), f(barH-2), color,
			ev.Seq, template.HTMLEscapeString(ev.Kind), f(offMS), ev.Epoch,
			template.HTMLEscapeString(ev.Detail))
	}
	fmt.Fprintf(&b, `<text x="0" y="%s" class="lbl">+0 ms</text>`, f(barH+12))
	fmt.Fprintf(&b, `<text x="%s" y="%s" class="lbl" text-anchor="end">+%s ms</text>`, f(width), f(barH+12), f(spanMS))
	b.WriteString(`</svg>`)

	if len(evs) > maxEventRows {
		*notes = append(*notes, fmt.Sprintf("event table shows the newest %d of %d records", maxEventRows, len(evs)))
		evs = evs[len(evs)-maxEventRows:]
	}
	var rows []eventView
	for _, ev := range evs {
		dur := ""
		if ev.DurationUS > 0 {
			dur = fmt.Sprintf("%d", ev.DurationUS)
		}
		rows = append(rows, eventView{
			Seq:      fmt.Sprintf("%d", ev.Seq),
			Offset:   "+" + f(float64(ev.TimeUnixNS-t0)/1e6) + " ms",
			Kind:     ev.Kind,
			Epoch:    fmt.Sprintf("%d", ev.Epoch),
			Engine:   ev.Engine,
			Duration: dur,
			Outcome:  ev.Outcome,
			Detail:   ev.Detail,
		})
	}
	return template.HTML(b.String()), rows
}

// sparkSpec reduces one probe series to one or more plotted lines.
type sparkSpec struct {
	series string
	name   string
	lines  []sparkLine
}

type sparkLine struct {
	label  string
	reduce func(values []float64) float64
}

var sparkSpecs = []sparkSpec{
	{series: "credit_stalls", name: "credit stalls (cumulative)", lines: []sparkLine{
		{label: "host", reduce: func(v []float64) float64 { return at(v, 0) }},
		{label: "switch", reduce: func(v []float64) float64 { return at(v, 1) }},
	}},
	{series: "event_queue", name: "event queue depth", lines: []sparkLine{
		{label: "pending", reduce: func(v []float64) float64 { return at(v, 0) }},
	}},
	{series: "buffer_pkts", name: "buffered packets (total)", lines: []sparkLine{
		{label: "total", reduce: sum},
	}},
	{series: "link_util", name: "max link utilization", lines: []sparkLine{
		{label: "max", reduce: maxOf},
	}},
}

func at(v []float64, i int) float64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

var sparkColors = [2]string{"#1e40af", "#b45309"}

// buildSparks renders one sparkline per known series present in the
// stream.
func buildSparks(probes *ProbeData) []sparkView {
	var out []sparkView
	for _, spec := range sparkSpecs {
		s := probes.Get(spec.series)
		if s == nil || len(s.Samples) == 0 {
			continue
		}
		const width, height = 420.0, 64.0
		t0, t1 := s.Samples[0].T, s.Samples[len(s.Samples)-1].T
		span := float64(t1 - t0)
		if span <= 0 {
			span = 1
		}
		// Shared y scale across the spec's lines.
		maxY := 0.0
		vals := make([][]float64, len(spec.lines))
		for li, ln := range spec.lines {
			vals[li] = make([]float64, len(s.Samples))
			for i, sm := range s.Samples {
				y := ln.reduce(sm.Values)
				vals[li][i] = y
				if y > maxY {
					maxY = y
				}
			}
		}
		if maxY == 0 {
			maxY = 1
		}
		var b strings.Builder
		fmt.Fprintf(&b, `<svg viewBox="0 0 %s %s" width="%s" height="%s" role="img" aria-label="%s">`,
			f(width), f(height), f(width), f(height), template.HTMLEscapeString(spec.name))
		var legend []string
		for li, ln := range spec.lines {
			color := sparkColors[li%2]
			var pts []string
			for i, sm := range s.Samples {
				x := float64(sm.T-t0) / span * (width - 2)
				y := (height - 14) * (1 - vals[li][i]/maxY)
				pts = append(pts, f(x+1)+","+f(y+1))
			}
			fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>`,
				color, strings.Join(pts, " "))
			legend = append(legend, fmt.Sprintf("%s (last %s)", ln.label, f(vals[li][len(s.Samples)-1])))
		}
		fmt.Fprintf(&b, `<text x="1" y="%s" class="lbl">peak %s</text>`, f(height-2), f(maxY))
		b.WriteString(`</svg>`)
		out = append(out, sparkView{
			Name:   spec.name,
			Legend: strings.Join(legend, " &middot; "),
			SVG:    template.HTML(b.String()),
		})
	}
	return out
}

// buildSnapshotTables folds the final registry snapshot into the
// histogram-quantile, counter and gauge tables.
func buildSnapshotTables(probes *ProbeData) (hists []histView, counters, gauges []kvView) {
	snap := probes.Snapshot
	if snap == nil {
		return nil, nil, nil
	}
	var names []string
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		mean := 0.0
		if h.Count > 0 {
			mean = h.Sum / float64(h.Count)
		}
		hists = append(hists, histView{
			Name:  n,
			Count: fmt.Sprintf("%d", h.Count),
			Mean:  f(mean),
			P50:   f(h.P50),
			P95:   f(h.P95),
			P99:   f(h.P99),
		})
	}
	names = names[:0]
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		counters = append(counters, kvView{Name: n, Value: fmt.Sprintf("%d", snap.Counters[n])})
	}
	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		gauges = append(gauges, kvView{Name: n, Value: fmt.Sprintf("%d", snap.Gauges[n])})
	}
	return hists, counters, gauges
}

var pageTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Title}}</title>
<style>
body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:920px;color:#1f2937;padding:0 1rem}
h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;border-bottom:1px solid #e5e7eb;padding-bottom:.2rem}
table{border-collapse:collapse;margin:.5rem 0}
td,th{border:1px solid #e5e7eb;padding:.2rem .6rem;text-align:right}
th{background:#f9fafb}td:first-child,th:first-child{text-align:left;font-family:ui-monospace,monospace}
.meta{color:#6b7280;font-size:.85rem}
.note{color:#92400e;background:#fffbeb;border:1px solid #fde68a;padding:.3rem .6rem;border-radius:4px;margin:.2rem 0;font-size:.85rem}
svg{display:block;margin:.5rem 0}
svg .lbl{font:9px ui-monospace,monospace;fill:#6b7280}
svg .bar{font:10px ui-monospace,monospace;fill:#fff}
.legend{color:#6b7280;font-size:.85rem}
</style>
</head>
<body>
<h1>{{.Title}}</h1>
{{if .Generated}}<p class="meta">generated {{.Generated}}</p>{{end}}
{{range .Inputs}}<p class="meta">{{.}}</p>
{{end}}{{if .Schemas}}<p class="meta">schemas: {{range $i, $s := .Schemas}}{{if $i}}, {{end}}{{$s}}{{end}}</p>{{end}}
{{range .Notes}}<p class="note">{{.}}</p>
{{end}}
{{if .Heatmap}}<h2>Link utilization</h2>
{{.Heatmap}}{{end}}
{{if .QueueHeatmap}}<h2>Queue depth over time</h2>
{{.QueueHeatmap}}
{{end}}{{if .HotLinks}}<table>
<tr><th>channel</th><th>max queue</th><th>busy %</th></tr>
{{range .HotLinks}}<tr><td>{{.Channel}}</td><td>{{.MaxQueue}}</td><td>{{.BusyPct}}</td></tr>
{{end}}</table>
{{end}}{{if .Timeline}}<h2>Stage timeline</h2>
{{.Timeline}}{{end}}
{{if .Sparks}}<h2>Time series</h2>
{{range .Sparks}}<h3>{{.Name}}</h3>
<p class="legend">{{.Legend}}</p>
{{.SVG}}
{{end}}{{end}}
{{range .LoadSects}}<h2>{{.Title}}</h2>
{{.Curve}}
{{if .Levels}}<table>
<tr><th>level</th><th>req/s</th><th>routes/s</th><th>sent</th><th>errors</th><th>p50 &#181;s</th><th>p95 &#181;s</th><th>p99 &#181;s</th><th>server p99 &#181;s</th></tr>
{{range .Levels}}<tr><td>{{.Level}}</td><td>{{.RPS}}</td><td>{{.Routes}}</td><td>{{.Sent}}</td><td>{{.Errors}}</td><td>{{.P50}}</td><td>{{.P95}}</td><td>{{.P99}}</td><td>{{.ServerP99}}</td></tr>
{{end}}</table>
{{end}}{{end}}{{if .BakeoffLevels}}<h2>Engine bake-off</h2>
{{if .BakeoffHead}}<p class="meta">{{.BakeoffHead}}</p>
{{end}}{{.BakeoffCurve}}
{{range .BakeoffLevels}}<h3>{{.Level}} ({{.FailedLinks}} failed link(s))</h3>
<table>
<tr><th>engine</th><th>routable %</th><th>unroutable hosts</th><th>broken pairs</th><th>max HSD</th><th>avg max HSD</th><th>contention-free</th><th>reroute ms</th><th>max queue</th><th>error</th></tr>
{{range .Rows}}<tr><td>{{.Engine}}</td><td>{{.Routability}}</td><td>{{.Unroutable}}</td><td>{{.BrokenPairs}}</td><td>{{.MaxHSD}}</td><td>{{.AvgMaxHSD}}</td><td>{{.ContentionFree}}</td><td>{{.RerouteMS}}</td><td>{{.MaxQueue}}</td><td>{{.Err}}</td></tr>
{{end}}</table>
{{end}}{{end}}{{if .EventStrip}}<h2>Fabric events</h2>
{{.EventStrip}}
{{end}}{{if .Events}}<table>
<tr><th>seq</th><th>time</th><th>kind</th><th>epoch</th><th>engine</th><th>&#181;s</th><th>outcome</th><th>detail</th></tr>
{{range .Events}}<tr><td>{{.Seq}}</td><td>{{.Offset}}</td><td>{{.Kind}}</td><td>{{.Epoch}}</td><td>{{.Engine}}</td><td>{{.Duration}}</td><td>{{.Outcome}}</td><td>{{.Detail}}</td></tr>
{{end}}</table>
{{end}}{{if .Hists}}<h2>Latency and distribution quantiles</h2>
<table>
<tr><th>histogram</th><th>count</th><th>mean</th><th>p50</th><th>p95</th><th>p99</th></tr>
{{range .Hists}}<tr><td>{{.Name}}</td><td>{{.Count}}</td><td>{{.Mean}}</td><td>{{.P50}}</td><td>{{.P95}}</td><td>{{.P99}}</td></tr>
{{end}}</table>{{end}}
{{if .Counters}}<h2>Counters</h2>
<table>
<tr><th>counter</th><th>value</th></tr>
{{range .Counters}}<tr><td>{{.Name}}</td><td>{{.Value}}</td></tr>
{{end}}</table>{{end}}
{{if .Gauges}}<h2>Gauges</h2>
<table>
<tr><th>gauge</th><th>value</th></tr>
{{range .Gauges}}<tr><td>{{.Name}}</td><td>{{.Value}}</td></tr>
{{end}}</table>{{end}}
</body>
</html>
`))
