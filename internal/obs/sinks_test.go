package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fattree/internal/des"
	"fattree/internal/schema"
)

// TestFileSinksProbeIntervalFlag checks the -probe-interval plumbing:
// the flag's wall-style duration becomes the sampler's simulated-time
// period, a code-set Interval wins over the flag, and the metrics
// stream opens with the schema header record.
func TestFileSinksProbeIntervalFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.jsonl")

	var s FileSinks
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s.RegisterFlags(fs)
	if err := fs.Parse([]string{"-metrics", path, "-probe-interval", "500ns"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Sampler.Interval(), 500*des.Nanosecond; got != want {
		t.Errorf("interval = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatal("metrics stream is empty")
	}
	var hdr StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("first record is not JSON: %v", err)
	}
	if hdr.Schema != schema.Probes {
		t.Errorf("first record schema = %q, want %q", hdr.Schema, schema.Probes)
	}

	// Code-set Interval beats the flag.
	var s2 FileSinks
	s2.MetricsPath = filepath.Join(dir, "m2.jsonl")
	s2.Interval = 2 * des.Microsecond
	s2.ProbeEvery = 500 * time.Nanosecond
	if err := s2.Open(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Sampler.Interval(); got != 2*des.Microsecond {
		t.Errorf("code-set interval overridden: %v", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}
