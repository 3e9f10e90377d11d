package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ibis"
)

// runTraceCmd implements the `trace` subcommand: run the standard
// two-app contention scenario under any policy with request-lifecycle
// tracing (and optionally invariant auditing) on, then dump the trace.
func runTraceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	policy := fs.String("policy", "sfqd2", "scheduling policy: native|sfqd|sfqd2|cgweight|cgthrottle|reserve")
	coordinate := fs.Bool("coordinate", false, "enable the Scheduling Broker")
	ssd := fs.Bool("ssd", false, "use the SSD device model")
	seed := fs.Int64("seed", 1, "simulation seed")
	capacity := fs.Int("cap", 1<<16, "trace ring capacity (records)")
	format := fs.String("format", "summary", "output format: jsonl|chrome|summary")
	audit := fs.Bool("audit", true, "run the invariant auditor alongside the trace")
	output := fs.String("o", "-", "output file (- = stdout)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: ibis-trace trace [flags]\n\n"+
			"Runs a weight-32 WordCount against a weight-1 TeraGen and dumps the\n"+
			"request-level I/O trace of every interposed scheduler.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	switch *format {
	case "jsonl", "chrome", "summary":
	default:
		return fmt.Errorf("unknown format %q (want jsonl, chrome, or summary)", *format)
	}
	if *capacity < 1 {
		// TraceCapacity 0 turns tracing off, and there would be no trace
		// to write once the run ends.
		return fmt.Errorf("-cap must be at least 1 record, got %d", *capacity)
	}
	cfg := ibis.Config{
		Policy:        pol,
		Coordinate:    *coordinate,
		SSD:           *ssd,
		Seed:          *seed,
		TraceCapacity: *capacity,
		Audit:         *audit,
	}
	if pol == ibis.CGThrottle {
		cfg.ThrottleLimits = map[ibis.AppID]float64{"teragen": 50e6}
	}
	if pol == ibis.Reserve {
		cfg.ReservationDefault = 50e6
	}
	sim, err := ibis.New(cfg)
	if err != nil {
		return err
	}
	wc := ibis.WordCount(1.5e9, 2)
	wc.App = "wordcount"
	wc.Weight = 32
	wc.CPUQuota = 48
	tg := ibis.TeraGen(6e9, 24)
	tg.App = "teragen"
	tg.Weight = 1
	tg.CPUQuota = 48
	if _, err := sim.Submit(wc, 0); err != nil {
		return err
	}
	if _, err := sim.Submit(tg, 0); err != nil {
		return err
	}
	sim.Run()

	var w io.Writer = os.Stdout
	if *output != "-" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	tr := sim.Trace()
	switch *format {
	case "jsonl":
		if err := tr.WriteJSONL(w); err != nil {
			return err
		}
	case "chrome":
		if err := tr.WriteChromeTrace(w); err != nil {
			return err
		}
	case "summary":
		writeTraceSummary(w, sim)
	default:
		return fmt.Errorf("unknown format %q (want jsonl, chrome, or summary)", *format)
	}

	if au := sim.Audit(); au != nil {
		if err := au.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "AUDIT FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "audit clean: %s\n", checksLine(au.Checks()))
	}
	return nil
}

func parsePolicy(s string) (ibis.Policy, error) {
	switch strings.ToLower(s) {
	case "native":
		return ibis.Native, nil
	case "sfqd":
		return ibis.SFQD, nil
	case "sfqd2":
		return ibis.SFQD2, nil
	case "cgweight":
		return ibis.CGWeight, nil
	case "cgthrottle":
		return ibis.CGThrottle, nil
	case "reserve":
		return ibis.Reserve, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// writeTraceSummary aggregates the per-request lifecycles into a
// per-app, per-device table: request counts, bytes, mean queue delay
// and mean device service time.
func writeTraceSummary(w io.Writer, sim *ibis.Simulation) {
	tr := sim.Trace()
	type agg struct {
		n          int
		bytes      float64
		queueDelay float64
		service    float64
		completed  int
	}
	rows := map[string]*agg{}
	for _, rt := range tr.Requests() {
		key := fmt.Sprintf("%-12s %-6s %s", rt.App, rt.Dev, rt.Class)
		a := rows[key]
		if a == nil {
			a = &agg{}
			rows[key] = a
		}
		a.n++
		a.bytes += rt.Size
		if qd := rt.QueueDelay(); qd >= 0 {
			a.queueDelay += qd
		}
		if st := rt.ServiceTime(); st >= 0 {
			a.service += st
			a.completed++
		}
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "trace: %d records held (%d total, %d overwritten), t_end=%.1fs\n\n",
		tr.Len(), tr.Total(), tr.Dropped(), sim.Now())
	fmt.Fprintf(w, "%-12s %-6s %-18s %8s %9s %12s %12s\n",
		"app", "dev", "class", "reqs", "MB", "mean-queue", "mean-service")
	for _, k := range keys {
		a := rows[k]
		mq, ms := 0.0, 0.0
		if a.completed > 0 {
			mq = a.queueDelay / float64(a.completed)
			ms = a.service / float64(a.completed)
		}
		fmt.Fprintf(w, "%-38s %8d %9.1f %11.2fms %11.2fms\n",
			k, a.n, a.bytes/1e6, mq*1e3, ms*1e3)
	}
}

// checksLine renders the audit evaluation counters compactly.
func checksLine(m map[string]uint64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}
