// Package export renders experiment results into plot-ready CSV, so
// the paper's figures can be regenerated with any plotting tool. Every
// writer emits a header row and uses plain decimal formatting — no
// locale surprises, no external dependencies.
package export

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ibis/internal/iosched"
	"ibis/internal/metrics"
)

// TimeSeriesCSV writes (time_s, value) rows for a binned series; the
// time column is the bin start.
func TimeSeriesCSV(w io.Writer, name string, ts *metrics.TimeSeries) error {
	if ts == nil {
		return fmt.Errorf("export: nil time series %q", name)
	}
	if _, err := fmt.Fprintf(w, "time_s,%s\n", sanitize(name)); err != nil {
		return err
	}
	width := ts.BinWidth()
	for i, rate := range ts.Rate() {
		if _, err := fmt.Fprintf(w, "%s,%s\n",
			ftoa(float64(i)*width), ftoa(rate)); err != nil {
			return err
		}
	}
	return nil
}

// CDFCSV writes (value, cumulative_fraction) rows — the Figure 9 data.
func CDFCSV(w io.Writer, name string, d *metrics.Distribution) error {
	if d == nil {
		return fmt.Errorf("export: nil distribution %q", name)
	}
	if _, err := fmt.Fprintf(w, "%s,cumulative_fraction\n", sanitize(name)); err != nil {
		return err
	}
	values, fracs := d.CDF()
	for i := range values {
		if _, err := fmt.Fprintf(w, "%s,%s\n", ftoa(values[i]), ftoa(fracs[i])); err != nil {
			return err
		}
	}
	return nil
}

// DepthTraceCSV writes the SFQ(D2) controller trace — the Figure 7
// data: time, depth, observed latency (ms), reference latency (ms).
func DepthTraceCSV(w io.Writer, trace []iosched.TracePoint) error {
	if _, err := fmt.Fprintln(w, "time_s,depth,latency_ms,lref_ms,samples"); err != nil {
		return err
	}
	for _, p := range trace {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%d\n",
			ftoa(p.Time), p.Depth, ftoa(p.Latency*1e3), ftoa(p.Lref*1e3), p.Samples); err != nil {
			return err
		}
	}
	return nil
}

// ftoa formats floats compactly without exponent notation for the
// magnitudes this simulator produces.
func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// sanitize strips CSV-breaking characters from labels.
func sanitize(s string) string {
	s = strings.ReplaceAll(s, ",", "_")
	s = strings.ReplaceAll(s, "\n", " ")
	return s
}
