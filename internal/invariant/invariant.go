// Package invariant is an executable catalog of the paper's correctness
// properties: every theorem, construction rule and representation
// contract of the pipeline — PGFT wiring (Section IV.B), RLFT
// restrictions (IV.C), D-Mod-K routing shape and Theorem-2 down-path
// uniqueness (Section V), collective-permutation-sequence structure
// (Section III) and the contention-freedom headline result — expressed
// as machine-checkable invariants over a concrete topology + routing +
// ordering instance.
//
// The same checks serve three callers: `go test` property sweeps over
// randomized fabrics (RandRLFT + Shrink), the fabric-manager daemon's
// snapshot validation (LenientArena), and the cmd/ftcheck CLI, which
// emits a schema-stamped fattree-check/v1 verdict for CI. Checks report
// pass/fail/skip with a structured counterexample. Every check on served
// paths — the route.* path checks, the Theorem 2 tally and
// LenientArena — reads one walker that scans ascending (src, dst), so
// the reported counterexample is always the lexicographically minimal
// failing pair.
package invariant

import (
	"fmt"
	"strings"

	"fattree/internal/cps"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/schema"
	"fattree/internal/topo"
)

// Status is a check outcome.
type Status string

// The three check outcomes. Skip means the invariant's precondition
// does not hold for the instance (e.g. Theorem 2 needs constant CBB),
// so the check asserts nothing.
const (
	Pass Status = "pass"
	Fail Status = "fail"
	Skip Status = "skip"
)

// Counterexample pins a failing check to concrete evidence. All fields
// are optional; pair-level checks fill Pair with the minimal failing
// (src, dst) end-ports, contention checks add the blamed link and its
// flows, randomized sweeps add the shrunk topology tuple.
type Counterexample struct {
	// Spec is the (shrunk) topology tuple the failure reproduces on.
	Spec string `json:"spec,omitempty"`
	// Pair is the minimal failing [src, dst] end-port pair.
	Pair []int `json:"pair,omitempty"`
	// Sequence and Stage locate a failing collective stage.
	Sequence string `json:"sequence,omitempty"`
	Stage    *int   `json:"stage,omitempty"`
	// Link is the blamed link ID; Load its flow count; Flows the
	// [src, dst] end-port pairs crossing it.
	Link  *int     `json:"link,omitempty"`
	Load  int      `json:"load,omitempty"`
	Flows [][2]int `json:"flows,omitempty"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// Result is one check's verdict on one instance.
type Result struct {
	Name           string          `json:"name"`
	Ref            string          `json:"ref,omitempty"`
	Status         Status          `json:"status"`
	Error          string          `json:"error,omitempty"`
	SkipReason     string          `json:"skip_reason,omitempty"`
	Counterexample *Counterexample `json:"counterexample,omitempty"`
}

// Check is one executable invariant. Name is dotted kind.property
// ("route.thm2-down-unique"); Ref anchors it to the paper.
type Check struct {
	Name string
	Ref  string
	Run  func(*Instance) Result
}

// Instance is the concrete system under check.
type Instance struct {
	// Topo is required.
	Topo *topo.Topology
	// Router is the routing under check; routing and contention checks
	// skip when nil.
	Router route.Router
	// Ordering is the MPI rank placement; defaults to the topology
	// order over the full cluster.
	Ordering *order.Ordering
	// Unroutable marks end-ports known to have lost their uplink; pair
	// checks require pairs touching them to be recorded as broken.
	Unroutable func(int) bool
	// Alive reports link usability (nil = every link alive); the
	// route.alive check requires served paths to avoid dead links.
	Alive func(topo.LinkID) bool
	// Sequences are the collective permutation sequences validated and
	// analyzed; defaults to the Table-2 family at cluster size.
	Sequences []cps.Sequence
}

// NewInstance builds an instance with defaults filled: topology
// ordering, all links alive, the standard CPS family.
func NewInstance(t *topo.Topology, r route.Router, o *order.Ordering) *Instance {
	in := &Instance{Topo: t, Router: r, Ordering: o}
	in.fill()
	return in
}

func (in *Instance) fill() {
	n := in.Topo.NumHosts()
	if in.Ordering == nil {
		in.Ordering = order.Topology(n, nil)
	}
	if in.Sequences == nil {
		in.Sequences = DefaultSequences(in.Topo.Spec, in.Ordering.Size())
	}
}

// DefaultSequences returns the Table-2 CPS family at job size n, plus
// the Section-VI topology-aware recursive doubling when the spec admits
// it at full cluster size.
func DefaultSequences(g topo.PGFT, n int) []cps.Sequence {
	seqs := []cps.Sequence{
		cps.Shift(n),
		cps.Ring(n),
		cps.Binomial(n),
		cps.Dissemination(n),
		cps.Tournament(n),
		cps.RecursiveDoubling(n),
		cps.RecursiveHalving(n),
	}
	if n == g.NumHosts() {
		if ta, err := cps.TopoAwareRecursiveDoubling(g.M); err == nil {
			seqs = append(seqs, ta)
		}
	}
	return seqs
}

// unroutable is the nil-safe Unroutable predicate.
func (in *Instance) unroutable(j int) bool {
	return in.Unroutable != nil && in.Unroutable(j)
}

// Catalog returns every invariant, topology checks first. The order is
// stable; ftcheck and the docs list it verbatim.
func Catalog() []Check {
	return []Check{
		{Name: "topo.addressing", Ref: "Section IV.B", Run: checkAddressing},
		{Name: "topo.connection-rule", Ref: "Section IV.B", Run: checkConnectionRule},
		{Name: "topo.cbb", Ref: "Section IV.C restriction 1", Run: checkCBB},
		{Name: "topo.host-uplink", Ref: "Section IV.C restriction 2", Run: checkHostUplink},
		{Name: "topo.roundtrip", Ref: "file format", Run: checkRoundTrip},
		{Name: "order.bijection", Ref: "Section II", Run: checkOrderingBijection},
		{Name: "cps.permutation", Ref: "Section III", Run: checkCPSPermutation},
		{Name: "route.total", Ref: "Section V", Run: checkRouteTotal},
		{Name: "route.updown", Ref: "up*/down* deadlock freedom", Run: checkRouteUpDown},
		{Name: "route.minimal", Ref: "Section V", Run: checkRouteMinimal},
		{Name: "route.alive", Ref: "fault model", Run: checkRouteAlive},
		{Name: "route.thm2-down-unique", Ref: "Theorem 2", Run: checkThm2DownUnique},
		{Name: "route.compiled-equiv", Ref: "path cache contract", Run: checkCompiledEquiv},
		{Name: "route.lenient-broken", Ref: "path cache contract", Run: checkLenientBroken},
		{Name: "hsd.contention-free", Ref: "Theorem 1 / Section VII", Run: checkContentionFree},
		{Name: "sim.zero-stalls", Ref: "Theorem 1 vs Section II", Run: checkSimZeroStalls},
	}
}

// Select resolves a comma-separated check list: "all", exact names
// ("route.total"), or kind prefixes ("topo" selects every topo.*).
func Select(names string) ([]Check, error) {
	cat := Catalog()
	if names == "" || names == "all" {
		return cat, nil
	}
	var out []Check
	seen := make(map[string]bool)
	for _, want := range strings.Split(names, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		matched := false
		for _, c := range cat {
			if c.Name == want || strings.HasPrefix(c.Name, want+".") {
				matched = true
				if !seen[c.Name] {
					seen[c.Name] = true
					out = append(out, c)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("invariant: unknown check %q (try \"all\" or one of %s)", want, strings.Join(Names(), ", "))
		}
	}
	return out, nil
}

// Names lists the catalog's check names in order.
func Names() []string {
	cat := Catalog()
	out := make([]string, len(cat))
	for i, c := range cat {
		out[i] = c.Name
	}
	return out
}

// Report is a full verdict over one instance, stamped fattree-check/v1.
type Report struct {
	Schema   string   `json:"schema"`
	Topology string   `json:"topology"`
	Hosts    int      `json:"hosts"`
	Routing  string   `json:"routing,omitempty"`
	Ordering string   `json:"ordering,omitempty"`
	Pass     bool     `json:"pass"`
	Passed   int      `json:"passed"`
	Failed   int      `json:"failed"`
	Skipped  int      `json:"skipped"`
	Checks   []Result `json:"checks"`
}

// FailedNames returns the names of the failing checks.
func (r *Report) FailedNames() []string {
	var out []string
	for _, c := range r.Checks {
		if c.Status == Fail {
			out = append(out, c.Name)
		}
	}
	return out
}

// Run executes the checks against the instance and assembles the
// verdict. A nil or empty checks slice runs the whole catalog.
func Run(in *Instance, checks []Check) *Report {
	in.fill()
	if len(checks) == 0 {
		checks = Catalog()
	}
	rep := &Report{
		Schema:   schema.Check,
		Topology: in.Topo.Spec.String(),
		Hosts:    in.Topo.NumHosts(),
		Ordering: in.Ordering.Label,
	}
	if in.Router != nil {
		rep.Routing = in.Router.Label()
	}
	for _, c := range checks {
		res := c.Run(in)
		res.Name, res.Ref = c.Name, c.Ref
		switch res.Status {
		case Pass:
			rep.Passed++
		case Fail:
			rep.Failed++
		case Skip:
			rep.Skipped++
		}
		rep.Checks = append(rep.Checks, res)
	}
	rep.Pass = rep.Failed == 0
	return rep
}

// pass, failf and skipf are Result constructors for check bodies.
func pass() Result { return Result{Status: Pass} }

func failf(cx *Counterexample, format string, args ...any) Result {
	return Result{Status: Fail, Error: fmt.Sprintf(format, args...), Counterexample: cx}
}

// failp is failf for the served-path predicates, which return nil for a
// pass.
func failp(cx *Counterexample, format string, args ...any) *Result {
	res := failf(cx, format, args...)
	return &res
}

func skipf(format string, args ...any) Result {
	return Result{Status: Skip, SkipReason: fmt.Sprintf(format, args...)}
}

// unmetRestrictions names the RLFT restrictions Theorems 1 and 2 rest on
// (Section IV.C: constant CBB, a single host uplink) that g breaks, for a
// skip reason; "" when it meets both.
func unmetRestrictions(g topo.PGFT) string {
	cbb, uplink := g.ConstantCBB(), g.SingleHostUplink()
	switch {
	case cbb && uplink:
		return ""
	case uplink:
		return "the constant CBB restriction"
	case cbb:
		return "the single host uplink restriction"
	}
	return "the constant CBB and single host uplink restrictions"
}

func intp(v int) *int { return &v }
