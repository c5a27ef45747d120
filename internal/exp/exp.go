// Package exp regenerates every table and figure of the paper's
// evaluation: the experiment harness behind cmd/ftbench and the top-level
// benchmarks. Each experiment returns a Table whose rows mirror what the
// paper reports; EXPERIMENTS.md records the paper-vs-measured comparison.
package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"fattree/internal/netsim"
	"fattree/internal/schema"
)

// Instrument, when non-nil, is applied to every netsim.Config just
// before it drives a simulation — the hook cmd/ftbench uses to attach
// observability sinks (metrics registry, probe sampler, tracer) to all
// experiment runs without threading flags through each Opts type. It is a
// package-level toggle: set it before running experiments, not
// concurrently with them.
var Instrument func(*netsim.Config)

// simConfig applies the Instrument hook to a config about to be used.
func simConfig(cfg netsim.Config) netsim.Config {
	if Instrument != nil {
		Instrument(&cfg)
	}
	return cfg
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(rule, "  ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table in RFC 4180 CSV (header first, notes as
// trailing comment lines) for machine consumption.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the table as one JSON object, rows as objects keyed
// by header name — the shape downstream tooling (ftreport, notebooks)
// wants, without parsing aligned text or CSV comments.
func (t *Table) RenderJSON(w io.Writer) error {
	rows := make([]map[string]string, 0, len(t.Rows))
	for _, row := range t.Rows {
		m := make(map[string]string, len(t.Header))
		for i, h := range t.Header {
			if i < len(row) {
				m[h] = row[i]
			}
		}
		rows = append(rows, m)
	}
	doc := struct {
		Schema string              `json:"schema"`
		Title  string              `json:"title"`
		Header []string            `json:"header"`
		Rows   []map[string]string `json:"rows"`
		Notes  []string            `json:"notes,omitempty"`
	}{schema.Table, t.Title, t.Header, rows, t.Notes}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
