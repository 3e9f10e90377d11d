package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ibis/internal/cluster"
	"ibis/internal/scale"
)

// TestMain shrinks every workload and the reference kernel to a tiny
// shape and adds two workloads that fail on purpose. Child repetitions
// re-execute this test binary, so they dispatch here before the tests
// run.
func TestMain(m *testing.M) {
	refKernel = func() string {
		time.Sleep(time.Millisecond)
		return "tiny"
	}
	var figs []figure
	for _, f := range paperFigureSet {
		if f.name == "fig07" {
			figs = append(figs, f)
		}
	}
	tiny := scale.Config{Nodes: 16, Tenants: 24, Horizon: 16, Policy: cluster.SFQD, Depth: 4, AuditSampleEvery: 1}
	federated := tiny
	federated.Coordinate, federated.Partitions = true, 2
	workloadSet = []workload{
		paperFigures(figs),
		corunObserved(1),
		scaleWorkload("hollow-1000", tiny),
		scaleWorkload("federated-400", federated),
		{
			name: "one-of-two-fails", runs: 2, setupBatch: 1,
			unit: func(uint64, *spans) outcome {
				return outcome{failures: []string{"injected failure"}}
			},
			setup: func(uint64, *spans) error { return nil },
		},
		{
			name: "nondeterministic", runs: 1, setupBatch: 1,
			unit: func(uint64, *spans) outcome {
				return outcome{counters: map[string]float64{"sim.events": float64(os.Getpid())}}
			},
			setup: func(uint64, *spans) error { return errors.New("injected setup failure") },
		},
	}
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func invoke(t *testing.T, args ...string) (summary, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("%v: last stdout line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, errb.String())
	}
	return s, code
}

// TestSmoke runs every workload at its tiny shape, untraced and traced,
// and checks that the metrics each reports are exactly the ones
// BENCHMARK.json declares, with the same units.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer}
	for _, name := range []string{"paper-figures", "corun-observed", "hollow-1000", "federated-400"} {
		for _, trace := range []string{"0", "1"} {
			s, code := invoke(t, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace)
			if code != 0 || !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace %s: exit %d, correct %v, %d of %d failed", name, trace, code, s.Correct, s.Failed, s.Attempted)
			}
			var want, got []string
			for _, m := range declared[trace] {
				want = append(want, m.Name+" "+m.Unit)
			}
			for n, v := range s.Metrics {
				got = append(got, n+" "+v.Unit)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %s: emitted metrics\n%v\ndeclared\n%v", name, trace, got, want)
			}
			if trace == "0" {
				for n, v := range s.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", name, n, v.Value)
					}
				}
			}
		}
	}
}

func TestFailuresAreCounted(t *testing.T) {
	for _, c := range []struct {
		workload          string
		attempted, failed int
	}{
		// Three iterations of a setup child, a repetition of two runs,
		// one of which fails, and the reference kernel.
		{"one-of-two-fails", 12, 3},
		// Three iterations whose setup fails; repetitions two and three
		// report counts that differ from the first.
		{"nondeterministic", 9, 5},
	} {
		s, code := invoke(t, "--workload", c.workload, "--seconds", "0")
		if code == 0 || s.Correct || s.Attempted != c.attempted || s.Failed != c.failed {
			t.Errorf("%s: exit %d, correct %v, %d of %d failed; want a non-zero exit and %d of %d failed",
				c.workload, code, s.Correct, s.Failed, s.Attempted, c.failed, c.attempted)
		}
	}
}

func TestReferenceKernelRepeats(t *testing.T) {
	a, b := referenceKernel(), referenceKernel()
	if a == "" || a != b {
		t.Fatalf("reference kernel checksums %q and %q, want two equal ones", a, b)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall func(seed int) float64) string {
		var b bytes.Buffer
		for seed := 1; seed <= 10; seed++ {
			r := result{Workload: "hollow-1000", Seed: uint64(seed), Metrics: map[string]value{
				"wall_s": {wall(seed), "s"},
			}}
			json.NewEncoder(&b).Encode(r)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := func(level float64) func(int) float64 {
		return func(seed int) float64 { return level * (1 + 0.001*float64(seed%3)) }
	}
	base := write("base.jsonl", steady(1))
	for _, c := range []struct {
		name, claim string
		head        func(int) float64
		ok          bool
		verdict     string
	}{
		{"same", "", steady(1.01), true, " ok"},
		{"slower", "", steady(1.4), false, "REGRESSED"},
		{"faster", "hollow-1000/wall_s", steady(0.8), true, "claim hollow-1000/wall_s: holds"},
		{"noisy", "", func(seed int) float64 { return 1 + 0.5*float64(seed%2) }, true, "unresolved"},
		{"unclaimed", "hollow-1000/wall_s", steady(1), false, "claim hollow-1000/wall_s: not met"},
	} {
		var out bytes.Buffer
		ok, err := compareResults("../BENCHMARK.json", base, write(c.name+".jsonl", c.head), c.claim, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: ok=%v, want %v, output lacks %q:\n%s", c.name, ok, c.ok, c.verdict, out.String())
		}
	}
}
