// Package report turns the repository's telemetry into answers: it
// joins routing/topology structure with the HSD analyzer's flow-level
// evidence into contention "blame" reports that name the colliding
// flows on every overloaded link, parses the probe JSONL and Chrome
// trace streams the obs layer emits, and renders them — with the load
// and event-journal documents of internal/schema — into one
// self-contained HTML file. cmd/ftreport is the command-line front end;
// docs/OBSERVABILITY.md documents every schema. Stdlib only.
package report

import (
	"fmt"
	"io"
	"sort"

	"fattree/internal/cps"
	"fattree/internal/hsd"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// Flow is one src->dst transfer crossing a contended link. Src/Dst are
// end-port indices; SrcRank/DstRank the MPI ranks mapped onto them
// (-1 when the stage was given as explicit host pairs).
type Flow struct {
	Src     int `json:"src"`
	Dst     int `json:"dst"`
	SrcRank int `json:"src_rank"`
	DstRank int `json:"dst_rank"`
}

// HotLink is one overloaded directed link of a stage: its identity,
// position in the tree, load, and every flow crossing it — the paper's
// Hot-Spot Degree argument made concrete enough to act on.
type HotLink struct {
	Link  int    `json:"link"`
	Dir   string `json:"dir"` // "up" | "down"
	Level int    `json:"level"`
	Load  int    `json:"load"`
	From  string `json:"from"`
	To    string `json:"to"`
	Flows []Flow `json:"flows"`
}

// BlameStage is the forensic record of one stage: the usual HSD summary
// plus per-tree-level maxima and the fully attributed hot links.
type BlameStage struct {
	Stage      int `json:"stage"`
	Flows      int `json:"flows"`
	MaxHSD     int `json:"max_hsd"`
	MaxUpHSD   int `json:"max_up_hsd"`
	MaxDownHSD int `json:"max_down_hsd"`
	// LevelUp[l] / LevelDown[l] are the maximum flow counts on links
	// joining levels l and l+1 (index 0 = host links), by direction.
	LevelUp   []int     `json:"level_up"`
	LevelDown []int     `json:"level_down"`
	HotLinks  []HotLink `json:"hot_links,omitempty"`
}

// BlameReport attributes every overloaded link of a sequence to the
// flows crossing it. It is the machine-readable output of
// `ftreport blame` and `fthsd -json`.
type BlameReport struct {
	Schema         string       `json:"schema"`
	Topology       string       `json:"topology"`
	Routing        string       `json:"routing"`
	Ordering       string       `json:"ordering"`
	Sequence       string       `json:"sequence"`
	Hosts          int          `json:"hosts"`
	MaxHSD         int          `json:"max_hsd"`
	HotStages      int          `json:"hot_stages"`
	HotLinks       int          `json:"hot_links"`
	ContentionFree bool         `json:"contention_free"`
	Stages         []BlameStage `json:"stages"`
}

// BuildBlame analyzes the sequence under the ordering with flow
// tracking on and attributes every directed link carrying more than one
// flow to the exact flows crossing it. The per-link loads and flow sets
// come from the same hsd.Analyzer pass, so a hot link's Flows length
// always equals its load counter.
func BuildBlame(rt route.Router, o *order.Ordering, seq cps.Sequence) (*BlameReport, error) {
	t := rt.Topology()
	if o.Size() != seq.Size() {
		return nil, fmt.Errorf("report: ordering size %d != sequence size %d", o.Size(), seq.Size())
	}
	if o.NumHosts() != t.NumHosts() {
		return nil, fmt.Errorf("report: ordering hosts %d != topology hosts %d", o.NumHosts(), t.NumHosts())
	}
	a := hsd.NewAnalyzer(rt)
	a.SetTrackFlows(true)
	rep := &BlameReport{
		Schema:   schema.Blame,
		Topology: t.Spec.String(),
		Routing:  rt.Label(),
		Ordering: o.Label,
		Sequence: seq.Name(),
		Hosts:    t.NumHosts(),
	}
	var pairs [][2]int
	var upBuf, downBuf []int32
	for s := 0; s < seq.NumStages(); s++ {
		stage := seq.Stage(s)
		pairs = pairs[:0]
		for _, p := range stage {
			pairs = append(pairs, [2]int{o.HostOf[p.Src], o.HostOf[p.Dst]})
		}
		sr, err := a.Stage(pairs)
		if err != nil {
			return nil, err
		}
		bs := BlameStage{
			Stage:      s,
			Flows:      sr.Flows,
			MaxHSD:     sr.MaxHSD,
			MaxUpHSD:   sr.MaxUpHSD,
			MaxDownHSD: sr.MaxDownHSD,
		}
		bs.LevelUp, bs.LevelDown = a.LevelLoads()
		upBuf, downBuf = a.LinkLoads(upBuf, downBuf)
		for l := range t.Links {
			for _, up := range []bool{true, false} {
				load := int(downBuf[l])
				if up {
					load = int(upBuf[l])
				}
				if load <= 1 {
					continue
				}
				bs.HotLinks = append(bs.HotLinks, blameLink(t, o, pairs, a, topo.LinkID(l), up, load))
			}
		}
		// Worst first, so the guilty link leads the report; ties break
		// on link id then direction for deterministic output.
		sort.SliceStable(bs.HotLinks, func(i, j int) bool {
			return bs.HotLinks[i].Load > bs.HotLinks[j].Load
		})
		if sr.MaxHSD > 1 {
			rep.HotStages++
		}
		rep.HotLinks += len(bs.HotLinks)
		if sr.MaxHSD > rep.MaxHSD {
			rep.MaxHSD = sr.MaxHSD
		}
		rep.Stages = append(rep.Stages, bs)
	}
	rep.ContentionFree = rep.MaxHSD <= 1
	return rep, nil
}

// blameLink assembles one hot link's record from the analyzer's tracked
// membership.
func blameLink(t *topo.Topology, o *order.Ordering, pairs [][2]int, a *hsd.Analyzer, l topo.LinkID, up bool, load int) HotLink {
	link := &t.Links[l]
	lower := t.Nodes[t.Ports[link.Lower].Node].String()
	upper := t.Nodes[t.Ports[link.Upper].Node].String()
	h := HotLink{
		Link:  int(l),
		Dir:   "down",
		Level: link.Level,
		Load:  load,
		From:  upper,
		To:    lower,
	}
	if up {
		h.Dir = "up"
		h.From, h.To = lower, upper
	}
	for _, fi := range a.StageFlows(l, up) {
		p := pairs[fi]
		f := Flow{Src: p[0], Dst: p[1], SrcRank: -1, DstRank: -1}
		if o != nil {
			f.SrcRank = o.RankOf(p[0])
			f.DstRank = o.RankOf(p[1])
		}
		h.Flows = append(h.Flows, f)
	}
	return h
}

// WriteBlameTable renders the report for humans: a summary line, then
// every hot stage with its overloaded links and the flows crossing
// them. maxFlows caps the flows printed per link (0 = all); truncation
// is announced, never silent.
func (r *BlameReport) WriteBlameTable(w io.Writer, maxFlows int) error {
	_, err := fmt.Fprintf(w, "%s / %s / %s on %s (%d hosts):\n",
		r.Sequence, r.Routing, r.Ordering, r.Topology, r.Hosts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  stages: %d  max HSD: %d  hot stages: %d  hot links: %d  contention-free: %v\n",
		len(r.Stages), r.MaxHSD, r.HotStages, r.HotLinks, r.ContentionFree)
	if r.ContentionFree {
		_, err = fmt.Fprintln(w, "  no link carries more than one flow in any stage; nothing to blame.")
		return err
	}
	for _, s := range r.Stages {
		if len(s.HotLinks) == 0 {
			continue
		}
		fmt.Fprintf(w, "  stage %d: flows %d  max HSD %d (up %d / down %d)  overloaded links %d\n",
			s.Stage, s.Flows, s.MaxHSD, s.MaxUpHSD, s.MaxDownHSD, len(s.HotLinks))
		for _, h := range s.HotLinks {
			fmt.Fprintf(w, "    link %d %s (level %d-%d): %d flows  %s -> %s\n",
				h.Link, h.Dir, h.Level-1, h.Level, h.Load, h.From, h.To)
			n := len(h.Flows)
			show := n
			if maxFlows > 0 && show > maxFlows {
				show = maxFlows
			}
			for _, f := range h.Flows[:show] {
				if f.SrcRank >= 0 {
					fmt.Fprintf(w, "      host %d -> host %d  (rank %d -> rank %d)\n",
						f.Src, f.Dst, f.SrcRank, f.DstRank)
				} else {
					fmt.Fprintf(w, "      host %d -> host %d\n", f.Src, f.Dst)
				}
			}
			if show < n {
				fmt.Fprintf(w, "      ... %d more flows (raise -top to see all)\n", n-show)
			}
		}
	}
	return nil
}
