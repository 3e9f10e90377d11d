package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare judges by.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads results from a file of JSON lines, or from every
// .json file in a directory such as benchmark/out.
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), "trace-") {
			continue // span files, not results
		}
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

// seeded returns each result's value of one workload's metric, ordered
// by seed.
func seeded(rs []result, workload, metric string) (seeds []uint64, values []float64) {
	var picked []result
	for _, r := range rs {
		if _, ok := r.Metrics[metric]; ok && r.Workload == workload {
			picked = append(picked, r)
		}
	}
	sort.SliceStable(picked, func(i, j int) bool { return picked[i].Seed < picked[j].Seed })
	for _, r := range picked {
		seeds = append(seeds, r.Seed)
		values = append(values, r.Metrics[metric].Value)
	}
	return seeds, values
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's direction (negative when b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults judges head against base for every (workload,
// end-to-end metric) both hold: each side's median and quartiles over
// its runs, and a verdict against the metric's bound. It reports false
// when a metric regressed or a named claim is not met.
func compareResults(specPath, basePath, headPath, claim string, w io.Writer) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := loadResults(basePath)
	if err != nil {
		return false, err
	}
	head, err := loadResults(headPath)
	if err != nil {
		return false, err
	}
	var names []string
	seen := map[string]bool{}
	for _, r := range append(append([]result(nil), base...), head...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)

	ok := true
	fmt.Fprintf(w, "%-15s %-11s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "verdict")
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			_, b := seeded(base, name, m.Name)
			_, h := seeded(head, name, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bm, hm := median(b), median(h)
			bq1, bq3 := quartiles(b)
			hq1, hq3 := quartiles(h)
			spread := 0.0
			if bm != 0 && hm != 0 {
				spread = max((bq3-bq1)/bm, (hq3-hq1)/hm)
			}
			worse := worseBy(bm, hm, m.Better)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved: spread " + pct(spread) + " exceeds the bound"
				if everyBetter(b, h, m.Better) {
					verdict = "better: every head run beats every base run"
				}
			case worse > m.Bound:
				verdict = "REGRESSED"
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-11s %28s %28s %8s %6s  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bm, bq1, bq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", hm, hq1, hq3),
				pct(-worse), fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
	}
	if claim != "" {
		held, why := judgeClaim(spec, base, head, claim)
		fmt.Fprintf(w, "claim %s: %s\n", claim, why)
		ok = ok && held
	}
	return ok, nil
}

// judgeClaim applies the gain rule to a named workload/metric: runs are
// paired by seed, head must win at least nine in ten pairs (ties count
// for neither) over at least ten pairs, and the medians must differ by
// more than the base runs' interquartile spread.
func judgeClaim(spec *benchSpec, base, head []result, claim string) (bool, string) {
	name, metric, found := strings.Cut(claim, "/")
	if !found {
		return false, "not met: name the claim as workload/metric"
	}
	var m *specMetric
	for _, s := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if s.Name == metric {
			m = &s
			break
		}
	}
	if m == nil {
		return false, "not met: " + metric + " is not a metric of BENCHMARK.json"
	}
	bs, b := seeded(base, name, metric)
	hs, h := seeded(head, name, metric)
	headBySeed := map[uint64]float64{}
	for i, s := range hs {
		headBySeed[s] = h[i]
	}
	pairs, wins := 0, 0
	for i, s := range bs {
		hv, ok := headBySeed[s]
		if !ok {
			continue
		}
		pairs++
		if worseBy(b[i], hv, m.Better) < 0 {
			wins++
		}
	}
	q1, q3 := quartiles(b)
	diff := median(h) - median(b)
	switch {
	case pairs < 10:
		return false, fmt.Sprintf("not met: %d seed-matched pairs, need at least 10", pairs)
	case 10*wins < 9*pairs:
		return false, fmt.Sprintf("not met: head wins %d of %d pairs, needs nine in ten", wins, pairs)
	case diff <= q3-q1 && -diff <= q3-q1:
		return false, fmt.Sprintf("not met: medians differ by %.4g, within the base spread %.4g", diff, q3-q1)
	}
	return true, fmt.Sprintf("holds: head wins %d of %d pairs, median %.4g → %.4g", wins, pairs, median(b), median(h))
}

func everyBetter(base, head []float64, better string) bool {
	for _, b := range base {
		for _, h := range head {
			if worseBy(b, h, better) >= 0 {
				return false
			}
		}
	}
	return true
}

func pct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }
