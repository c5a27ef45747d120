package report

import (
	"encoding/json"
	"fmt"
	"io"

	"fattree/internal/schema"
)

// parseStamped decodes one schema-stamped JSON document and checks the
// stamp, so a report never silently renders the wrong document kind.
func parseStamped[T any](r io.Reader, what, want string, stamp func(*T) string) (*T, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("report: reading %s: %w", what, err)
	}
	var doc T
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("report: %s is not JSON: %w", what, err)
	}
	if got := stamp(&doc); got != want {
		return nil, fmt.Errorf("report: %s schema %q, want %q", what, got, want)
	}
	return &doc, nil
}

// ParseLoad reads a fattree-load/v1 document (ftload -out).
func ParseLoad(r io.Reader) (*schema.LoadDoc, error) {
	return parseStamped(r, "load doc", schema.Load, func(d *schema.LoadDoc) string { return d.Schema })
}

// ParseEvents reads a fattree-events/v1 document (GET /v1/events).
func ParseEvents(r io.Reader) (*schema.EventsDoc, error) {
	return parseStamped(r, "events doc", schema.Events, func(d *schema.EventsDoc) string { return d.Schema })
}

// ParseBakeoff reads a fattree-bakeoff/v1 verdict (ftbakeoff -o).
func ParseBakeoff(r io.Reader) (*schema.BakeoffDoc, error) {
	return parseStamped(r, "bake-off verdict", schema.Bakeoff, func(d *schema.BakeoffDoc) string { return d.Schema })
}
