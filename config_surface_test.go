package ibis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// configSurface is every exported field of the configuration structs,
// in declaration order. A field added to or removed from one of them
// must change this table too, so the change shows in review. A nil
// list means the type must not exist.
var configSurface = []struct {
	dir, typ string
	fields   []string
}{
	// Nine of the ten structs counted since the configuration sweeps
	// began (the tenth, storage.ProfileOptions, is gone): 92 fields.
	{".", "Config", []string{
		"Nodes", "CoresPerNode", "MemGBPerNode", "SSD", "Policy", "SFQDepth",
		"Coordinate", "ThrottleLimits", "ReservationRates",
		"ReservationDefault", "ScheduleNetwork", "CoordinationPeriod",
		"BlockSize", "Replication", "Seed", "TraceCapacity", "Audit", "Faults"}},
	{"internal/experiments", "Options", []string{
		"Scale", "SSD", "Policy", "SFQDepth", "Gain", "Coordinate",
		"ThrottleLimits", "Seed", "CaptureThroughput", "CaptureDepthTrace",
		"WriteAhead", "CoresPerNode", "MemGBPerNode", "LrefScale",
		"ScheduleNetwork", "ReservationRates", "ReservationDefault",
		"TraceCapacity", "Audit", "Shards"}},
	{"internal/cluster", "Config", []string{
		"Nodes", "CoresPerNode", "MemGBPerNode", "HDFSDisk", "LocalDisk",
		"Policy", "SFQDepth", "Controller", "ThrottleLimits",
		"ReservationRates", "ReservationDefault", "ScheduleNetwork",
		"Coordinate", "CoordinationPeriod", "Federation", "Faults", "Shares",
		"Hollow"}},
	{"internal/cluster", "Federation", []string{
		"Partitions", "AggregationPeriod"}},
	{"internal/scale", "Config", []string{
		"Nodes", "Tenants", "AppsPerTenant", "Replicas", "Seed", "Horizon",
		"LoadFactor", "MeanRequestBytes", "NodeBandwidth", "Policy", "Depth",
		"Coordinate", "CoordinationPeriod", "Partitions", "Faults", "Audit",
		"AuditSampleEvery", "Workers"}},
	{"internal/audit", "Options", []string{
		"CoordinationPeriod", "FederationStaleness"}},
	{"internal/mapreduce", "Config", []string{
		"ChunkBytes", "WriteAheadChunks", "ShuffleBufferBytes"}},
	{"internal/iosched", "ControllerConfig", []string{
		"Gain", "ReadLref", "WriteLref", "Trace"}},
	{"internal/hive", "RunOptions", []string{
		"Weight", "Tenant", "CPUWeight", "CPUQuota", "Pool", "ScaleBytes",
		"Delay"}},
	// The other configuration surfaces.
	{"internal/broker", "ClientOptions", []string{
		"Transport", "Period", "Shares"}},
	{"internal/workloads", "PopulationConfig", []string{
		"Tenants", "AppsPerTenant", "Seed", "Nodes", "Replicas", "LoadFactor"}},
	{"internal/faults", "Spec", []string{
		"Seed", "Horizon", "Outages", "OutageCount", "OutageMeanDur",
		"Partitions", "PartitionCount", "PartitionMeanDur", "PartitionTargets",
		"Restarts", "RestartCount", "RestartTargets", "DropProb",
		"RespDropProb", "DelayProb", "DelayMin", "DelayMax", "DeviceDegrade",
		"DegradeCount", "DegradeMeanDur", "DegradeTargets", "DegradeFactor",
		"LeaderOutages", "LeaderOutageCount", "LeaderOutageMeanDur",
		"LeaderTargets"}},
	// Deleted: the client derives its retry rule from its period, and
	// device profiling has one fixed probe.
	{"internal/broker", "RetryPolicy", nil},
	{"internal/storage", "ProfileOptions", nil},
}

func TestConfigSurface(t *testing.T) {
	fset := token.NewFileSet()
	for _, c := range configSurface {
		got, ok := exportedFields(t, fset, c.dir, c.typ)
		switch {
		case c.fields == nil && ok:
			t.Errorf("%s.%s exists with fields %q; want it gone", c.dir, c.typ, got)
		case c.fields != nil && !ok:
			t.Errorf("%s.%s not found", c.dir, c.typ)
		case !slices.Equal(got, c.fields):
			t.Errorf("%s.%s exported fields:\n got %q\nwant %q", c.dir, c.typ, got, c.fields)
		}
	}
}

// exportedFields parses the non-test Go files of dir and returns the
// exported field names of struct type typ, or false if dir declares no
// such struct.
func exportedFields(t *testing.T, fset *token.FileSet, dir, typ string) ([]string, bool) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, s := range g.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != typ {
					continue
				}
				fields := []string{}
				for _, fld := range st.Fields.List {
					if len(fld.Names) == 0 {
						t.Fatalf("%s.%s embeds a type; this table lists named fields only", dir, typ)
					}
					for _, n := range fld.Names {
						if n.IsExported() {
							fields = append(fields, n.Name)
						}
					}
				}
				return fields, true
			}
		}
	}
	return nil, false
}
