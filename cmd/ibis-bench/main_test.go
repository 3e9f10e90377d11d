package main

import (
	"testing"

	"ibis/internal/experiments"
)

func parseScale(s string) error {
	_, err := parseHollowSpec("scale-spec", s, experiments.DefaultScaleConfig(), experiments.DefaultScaleFlows)
	return err
}

func parseFederation(s string) error {
	_, err := parseHollowSpec("federation-spec", s, experiments.DefaultFederationConfig(), 0)
	return err
}

func TestSpecParsersRejectPartialAndNonFiniteValues(t *testing.T) {
	reweight := func(s string) error { _, err := parseReweight(s); return err }
	for _, tc := range []struct {
		parse func(string) error
		in    string
	}{
		{parseScale, "nodes=1e3"},
		{parseScale, "nodes=12x"},
		{parseScale, "horizon=inf"},
		{parseScale, "horizon=NaN"},
		{parseScale, "horizon=3s"},
		{parseFederation, "partitions=2.5"},
		{parseFederation, "horizon=-Inf"},
		{parseFederation, "seed=-1"},
		// Each flag keeps its own keys.
		{parseScale, "partitions=4"},
		{parseFederation, "flows=1000"},
		{reweight, "t=30s"},
		{reweight, "w=NaN"},
		{reweight, "w=+Inf"},
	} {
		if tc.parse(tc.in) == nil {
			t.Errorf("%q accepted", tc.in)
		}
	}
}

func TestSpecParsersAcceptWholeValues(t *testing.T) {
	sc, err := parseHollowSpec("scale-spec", "nodes=120,tenants=600,flows=60000,apps=2,shards=4,seed=7,horizon=2.5",
		experiments.DefaultScaleConfig(), experiments.DefaultScaleFlows)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes != 120 || sc.Tenants != 600 || sc.AppsPerTenant != 2 ||
		sc.Workers != 4 || sc.Seed != 7 || sc.Horizon != 2.5 {
		t.Fatalf("scale spec = %+v", sc)
	}
	// Without horizon=, flows= sets it for the parsed node count.
	sc, err = parseHollowSpec("scale-spec", "nodes=120,flows=60000",
		experiments.DefaultScaleConfig(), experiments.DefaultScaleFlows)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.FlowHorizon(60000, 120); sc.Horizon != want {
		t.Fatalf("scale horizon = %g, want %g from flows=60000", sc.Horizon, want)
	}
	// A zero target still goes through the formula: its 5 s floor.
	sc, err = parseHollowSpec("scale-spec", "flows=0", experiments.DefaultScaleConfig(), experiments.DefaultScaleFlows)
	if err != nil || sc.Horizon != 5 {
		t.Fatalf("flows=0: horizon %g, err %v; want the 5 s floor", sc.Horizon, err)
	}
	fs, err := parseHollowSpec("federation-spec", "nodes=40,tenants=80,partitions=4,horizon=5",
		experiments.DefaultFederationConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Nodes != 40 || fs.Tenants != 80 || fs.Partitions != 4 || fs.Horizon != 5 || !fs.Coordinate {
		t.Fatalf("federation spec = %+v", fs)
	}
	rw, err := parseReweight("t=30,app=hot,w=8")
	if err != nil {
		t.Fatal(err)
	}
	if rw.At != 30 || rw.App != "hot" || rw.Weight != 8 {
		t.Fatalf("reweight spec = %+v", rw)
	}
}
