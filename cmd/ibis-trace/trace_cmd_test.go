package main

import (
	"strings"
	"testing"

	"ibis"
)

// TestTraceSummaryGolden pins the summary table of a small seeded
// contention run, traced into a ring that wraps: its rows are
// aggregated from Tracer.Requests.
func TestTraceSummaryGolden(t *testing.T) {
	sim, err := ibis.New(ibis.Config{Policy: ibis.SFQD2, Seed: 3, TraceCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	wc := ibis.WordCount(2e8, 2)
	wc.App, wc.Weight, wc.CPUQuota = "wordcount", 32, 48
	tg := ibis.TeraGen(8e8, 8)
	tg.App, tg.Weight, tg.CPUQuota = "teragen", 1, 48
	for _, spec := range []ibis.JobSpec{wc, tg} {
		if _, err := sim.Submit(spec, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	var b strings.Builder
	writeTraceSummary(&b, sim)
	want := `trace: 4096 records held (4119 total, 23 overwritten), t_end=25.7s

app          dev    class                  reqs        MB   mean-queue mean-service
teragen      hdfs   persistent-write       1200    2400.0       73.43ms      101.50ms
wordcount    hdfs   persistent-read          99     196.0        5.20ms       40.31ms
wordcount    hdfs   persistent-write         18      30.0        2.90ms       53.21ms
wordcount    local  intermediate-read        28      50.0        0.00ms       38.18ms
wordcount    local  intermediate-write       26      50.0        0.00ms      143.40ms
`
	if got := b.String(); got != want {
		t.Errorf("summary:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceCmdRejectsNonPositiveCap: a ring of no records turns tracing
// off, so -cap below 1 is refused before the simulation runs, on every
// format, instead of failing once the run is over.
func TestTraceCmdRejectsNonPositiveCap(t *testing.T) {
	for _, capArg := range []string{"0", "-1"} {
		for _, format := range []string{"jsonl", "chrome", "summary"} {
			err := runTraceCmd([]string{"-cap", capArg, "-format", format})
			if err == nil || !strings.Contains(err.Error(), "-cap") {
				t.Errorf("-cap %s -format %s: error %v, want a -cap error", capArg, format, err)
			}
		}
	}
}
