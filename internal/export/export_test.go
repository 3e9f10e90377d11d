package export

import (
	"strings"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/metrics"
)

func TestTimeSeriesCSV(t *testing.T) {
	ts := metrics.NewTimeSeries(2)
	ts.Add(0, 10)
	ts.Add(3, 30)
	var b strings.Builder
	if err := TimeSeriesCSV(&b, "read,MB", ts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "time_s,read_MB" {
		t.Fatalf("header = %q (commas must be sanitized)", lines[0])
	}
	if lines[1] != "0,5" || lines[2] != "2,15" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestTimeSeriesCSVNil(t *testing.T) {
	if err := TimeSeriesCSV(&strings.Builder{}, "x", nil); err == nil {
		t.Fatal("nil series accepted")
	}
}

func TestCDFCSV(t *testing.T) {
	d := metrics.NewDistribution()
	d.Add(2)
	d.Add(1)
	var b strings.Builder
	if err := CDFCSV(&b, "runtime_s", d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "runtime_s,cumulative_fraction" || lines[1] != "1,0.5" || lines[2] != "2,1" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestDepthTraceCSV(t *testing.T) {
	trace := []iosched.TracePoint{
		{Time: 1, Depth: 6, Latency: 0.1, Lref: 0.09, Samples: 42},
	}
	var b strings.Builder
	if err := DepthTraceCSV(&b, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "time_s,depth,latency_ms,lref_ms,samples" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,6,100,90,42" {
		t.Fatalf("row = %q", lines[1])
	}
}
