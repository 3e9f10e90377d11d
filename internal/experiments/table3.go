package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Table3Component is one row of the development-cost table.
type Table3Component struct {
	Name      string
	Dirs      []string
	CodeLines int
	TestLines int
}

// Table3Result is the analogue of the paper's Table 3 (development
// cost of IBIS by component; the Hadoop prototype totals 6552 lines).
type Table3Result struct {
	Root       string
	Components []Table3Component
	TotalCode  int
	TotalTests int
}

// table3Components maps Table 3's rows onto this repository.
var table3Components = []Table3Component{
	{Name: "Interposition (requests, classes, shares)", Dirs: []string{"internal/iosched", "internal/cluster", "internal/shares"}},
	{Name: "Scheduling coordination (broker, DSFQ, faults)", Dirs: []string{"internal/broker", "internal/faults"}},
	{Name: "Simulation substrate (engine, devices)", Dirs: []string{"internal/sim", "internal/storage"}},
	{Name: "Big-data substrate (DFS, MapReduce, Hive)", Dirs: []string{"internal/dfs", "internal/mapreduce", "internal/hive"}},
	{Name: "Workloads + baselines", Dirs: []string{"internal/workloads", "internal/cgroups"}},
	{Name: "Observation (trace, audit)", Dirs: []string{"internal/trace", "internal/audit"}},
	{Name: "Experiments + scale + metrics + export", Dirs: []string{"internal/experiments", "internal/scale", "internal/metrics", "internal/export"}},
	{Name: "Public API + tools + examples", Dirs: []string{".", "cmd", "examples"}},
}

// Table3 counts non-blank Go lines per component under root (the
// repository top). It fails softly: unreadable directories count zero.
func Table3(root string) (*Table3Result, error) {
	if root == "" {
		root = "."
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("experiments: %q does not look like the repository root: %w", root, err)
	}
	res := &Table3Result{Root: root}
	counted := map[string]bool{}
	for _, c := range table3Components {
		row := Table3Component{Name: c.Name, Dirs: c.Dirs}
		for _, d := range c.Dirs {
			code, tests := countGoLines(filepath.Join(root, d), d == ".")
			row.CodeLines += code
			row.TestLines += tests
			if !counted[d] {
				res.TotalCode += code
				res.TotalTests += tests
				counted[d] = true
			}
		}
		res.Components = append(res.Components, row)
	}
	return res, nil
}

// String renders the table.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: development cost by component\n")
	fmt.Fprintf(&b, "  %-46s %8s %8s\n", "component", "code", "tests")
	for _, c := range r.Components {
		fmt.Fprintf(&b, "  %-46s %8d %8d\n", c.Name, c.CodeLines, c.TestLines)
	}
	fmt.Fprintf(&b, "  %-46s %8d %8d\n", "TOTAL (unique)", r.TotalCode, r.TotalTests)
	b.WriteString("  (paper: 6552 lines — interposition 2593, SFQ(D) 734, SFQ(D2) 1520, coordination 1705)\n")
	return b.String()
}

// countGoLines counts non-blank lines of .go files under dir; shallow
// limits the scan to the directory itself (used for the repo root so
// subpackages are not double counted).
func countGoLines(dir string, shallow bool) (code, tests int) {
	count := func(path string) {
		if !strings.HasSuffix(path, ".go") {
			return
		}
		n := countFileLines(path)
		if strings.HasSuffix(path, "_test.go") {
			tests += n
		} else {
			code += n
		}
	}
	if shallow {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if !e.IsDir() {
				count(filepath.Join(dir, e.Name()))
			}
		}
		return
	}
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		count(path)
		return nil
	})
	return
}

func countFileLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			n++
		}
	}
	return n
}
