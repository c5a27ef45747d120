package fabric

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"fattree/internal/schema"
	"fattree/internal/topo"
)

// The test-side readers of this package's two output formats: a parser
// and a differ for WriteLFTs dumps, and a validating decoder for
// fattree-fabric/v1 documents that checks every emitter invariant.

// ParsedLFTs is the egress map recovered from a dump: switch LID ->
// destination LID -> physical port.
type ParsedLFTs map[LID]map[LID]int16

// ParseLFTs reads a WriteLFTs dump.
func ParseLFTs(r io.Reader) (ParsedLFTs, error) {
	out := make(ParsedLFTs)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var cur map[LID]int16
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "Unicast lids") {
			// ... of switch Lid 0x145 guid ...
			fields := strings.Fields(line)
			lidIdx := -1
			for i, f := range fields {
				if f == "Lid" && i+1 < len(fields) {
					lidIdx = i + 1
					break
				}
			}
			if lidIdx < 0 {
				return nil, fmt.Errorf("fabric: line %d: malformed switch header", lineNo)
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(fields[lidIdx], "0x"), 16, 16)
			if err != nil {
				return nil, fmt.Errorf("fabric: line %d: bad switch lid: %v", lineNo, err)
			}
			cur = make(map[LID]int16)
			out[LID(v)] = cur
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("fabric: line %d: entry before switch header", lineNo)
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("fabric: line %d: malformed entry", lineNo)
		}
		lid, err := strconv.ParseUint(strings.TrimPrefix(fields[0], "0x"), 16, 16)
		if err != nil {
			return nil, fmt.Errorf("fabric: line %d: bad lid: %v", lineNo, err)
		}
		port, err := strconv.ParseInt(fields[1], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("fabric: line %d: bad port: %v", lineNo, err)
		}
		cur[LID(lid)] = int16(port)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// DiffLFTs compares two parsed dumps and returns a list of human-readable
// differences (missing switches, missing entries, port mismatches).
func DiffLFTs(a, b ParsedLFTs) []string {
	var diffs []string
	for sw, ta := range a {
		tb, ok := b[sw]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("switch 0x%x only in first dump", sw))
			continue
		}
		for lid, pa := range ta {
			pb, ok := tb[lid]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("switch 0x%x lid 0x%x only in first dump", sw, lid))
			case pa != pb:
				diffs = append(diffs, fmt.Sprintf("switch 0x%x lid 0x%x: port %d vs %d", sw, lid, pa, pb))
			}
		}
		for lid := range tb {
			if _, ok := ta[lid]; !ok {
				diffs = append(diffs, fmt.Sprintf("switch 0x%x lid 0x%x only in second dump", sw, lid))
			}
		}
	}
	for sw := range b {
		if _, ok := a[sw]; !ok {
			diffs = append(diffs, fmt.Sprintf("switch 0x%x only in second dump", sw))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// maxDocNodes caps the node count of a topology a document may ask
// Validate to build — generously above the 1944-host paper clusters but
// far below anything that could exhaust memory.
const maxDocNodes = 1 << 22

// tooLargeToValidate reports whether building the spec would exceed
// maxDocNodes hosts or switches, using overflow-safe arithmetic (the
// parsed tuple is untrusted input).
func tooLargeToValidate(g topo.PGFT) bool {
	mul := func(a, b int) int {
		if b != 0 && a > maxDocNodes/b {
			return maxDocNodes + 1
		}
		return a * b
	}
	hosts := 1
	for _, m := range g.M {
		hosts = mul(hosts, m)
	}
	if hosts > maxDocNodes {
		return true
	}
	total := 0
	for l := 1; l <= g.H; l++ {
		sw := 1
		for i := 0; i < l; i++ {
			sw = mul(sw, g.W[i])
		}
		for i := l; i < g.H; i++ {
			sw = mul(sw, g.M[i])
		}
		total += sw
		if total > maxDocNodes {
			return true
		}
	}
	return false
}

// ParseDoc decodes a fattree-fabric/v1 document and validates it against
// the schema's internal consistency rules: the topology tuple must
// parse, the inventory counts must fit it, GUIDs must be well-formed and
// strictly ascending, fault lists must name real links and hosts, and
// the HSD summary must be self-consistent (contention free iff max HSD
// is at most 1). Consumers of daemon or ftfabric output get either a
// document every emitter invariant holds for, or an error — never a
// half-plausible one.
func ParseDoc(r io.Reader) (*Doc, error) {
	var d Doc
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("fabric: parse doc: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the document's internal consistency; see ParseDoc.
func (d *Doc) Validate() error {
	if d.Schema != schema.Fabric {
		return fmt.Errorf("fabric: doc schema %q, want %q", d.Schema, schema.Fabric)
	}
	g, err := topo.ParseSpec(d.Topology)
	if err != nil {
		return fmt.Errorf("fabric: doc topology: %w", err)
	}
	// Bound the build before materializing an attacker-sized fabric: a
	// validator must not allocate gigabytes because a document asked to.
	if tooLargeToValidate(g) {
		return fmt.Errorf("fabric: doc topology %s too large to validate", d.Topology)
	}
	t, err := topo.Build(g)
	if err != nil {
		return fmt.Errorf("fabric: doc topology: %w", err)
	}
	if d.Hosts < 0 || d.Hosts > t.NumHosts() {
		return fmt.Errorf("fabric: doc reports %d hosts, %s has %d", d.Hosts, d.Topology, t.NumHosts())
	}
	if d.Switches < 0 || d.Switches > g.TotalSwitches() {
		return fmt.Errorf("fabric: doc reports %d switches, %s has %d", d.Switches, d.Topology, g.TotalSwitches())
	}
	if d.Links < 0 || d.Links > len(t.Links) {
		return fmt.Errorf("fabric: doc reports %d links, %s has %d", d.Links, d.Topology, len(t.Links))
	}
	var prev uint64
	for i, sw := range d.Inv {
		if !strings.HasPrefix(sw.GUID, "0x") {
			return fmt.Errorf("fabric: doc switch %d: guid %q is not 0x-prefixed hex", i, sw.GUID)
		}
		guid, err := strconv.ParseUint(sw.GUID[2:], 16, 64)
		if err != nil {
			return fmt.Errorf("fabric: doc switch %d: guid %q: %v", i, sw.GUID, err)
		}
		if sw.Ports <= 0 {
			return fmt.Errorf("fabric: doc switch %s: %d ports", sw.GUID, sw.Ports)
		}
		if i > 0 && guid <= prev {
			return fmt.Errorf("fabric: doc switch %d: guid %s not strictly ascending", i, sw.GUID)
		}
		prev = guid
	}
	if f := d.Faults; f != nil {
		for i, l := range f.FailedLinks {
			if l < 0 || l >= d.Links {
				return fmt.Errorf("fabric: doc failed link %d out of range [0,%d)", l, d.Links)
			}
			if i > 0 && l <= f.FailedLinks[i-1] {
				return fmt.Errorf("fabric: doc failed links not strictly ascending at %d", l)
			}
		}
		for _, j := range f.UnroutableHosts {
			if j < 0 || j >= d.Hosts {
				return fmt.Errorf("fabric: doc unroutable host %d out of range [0,%d)", j, d.Hosts)
			}
		}
		if max := d.Hosts * (d.Hosts - 1); f.BrokenPairs < 0 || f.BrokenPairs > max {
			return fmt.Errorf("fabric: doc reports %d broken pairs, at most %d possible", f.BrokenPairs, max)
		}
	}
	if h := d.HSD; h != nil {
		if h.Stages < 0 || h.MaxHSD < 0 {
			return fmt.Errorf("fabric: doc hsd: %d stages, max %d", h.Stages, h.MaxHSD)
		}
		if h.AvgMaxHSD < 0 || h.AvgMaxHSD > float64(h.MaxHSD)+1e-9 {
			return fmt.Errorf("fabric: doc hsd: avg max %g exceeds max %d", h.AvgMaxHSD, h.MaxHSD)
		}
		if h.ContentionFree != (h.MaxHSD <= 1) {
			return fmt.Errorf("fabric: doc hsd: contention_free %v contradicts max HSD %d", h.ContentionFree, h.MaxHSD)
		}
	}
	return nil
}
