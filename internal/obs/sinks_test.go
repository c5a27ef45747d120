package obs

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fattree/internal/des"
	"fattree/internal/schema"
)

// TestFileSinksProbeIntervalFlag checks the -probe-interval plumbing:
// the flag's wall-style duration becomes the sampler's simulated-time
// period, the metrics stream opens with the schema header record, and
// a negative period is refused by name before any file is created.
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
	if got, want := s.Sampler.interval, 500*des.Nanosecond; got != want {
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

	var s2 FileSinks
	s2.MetricsPath = filepath.Join(dir, "m2.jsonl")
	s2.ProbeEvery = -500 * time.Nanosecond
	if err := s2.Open(); err == nil || !strings.Contains(err.Error(), "-probe-interval") {
		t.Errorf("negative interval: err = %v, want one naming -probe-interval", err)
	}
	if _, err := os.Stat(s2.MetricsPath); !os.IsNotExist(err) {
		t.Errorf("refused sinks created %s (stat err %v)", s2.MetricsPath, err)
	}
}
