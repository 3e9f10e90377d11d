package main

import "testing"

func TestSpecParsersRejectPartialAndNonFiniteValues(t *testing.T) {
	scale := func(s string) error { _, err := parseScaleSpec(s); return err }
	fed := func(s string) error { _, err := parseFederationSpec(s); return err }
	reweight := func(s string) error { _, err := parseReweight(s); return err }
	for _, tc := range []struct {
		parse func(string) error
		in    string
	}{
		{scale, "nodes=1e3"},
		{scale, "nodes=12x"},
		{scale, "horizon=inf"},
		{scale, "horizon=NaN"},
		{scale, "horizon=3s"},
		{fed, "partitions=2.5"},
		{fed, "horizon=-Inf"},
		{fed, "seed=-1"},
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
	sc, err := parseScaleSpec("nodes=120,tenants=600,flows=60000,apps=2,shards=4,seed=7,horizon=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes != 120 || sc.Tenants != 600 || sc.Flows != 60000 || sc.Apps != 2 ||
		sc.Shards != 4 || sc.Seed != 7 || sc.Horizon != 2.5 {
		t.Fatalf("scale spec = %+v", sc)
	}
	fs, err := parseFederationSpec("nodes=40,tenants=80,partitions=4,horizon=5")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Nodes != 40 || fs.Tenants != 80 || fs.Partitions != 4 || fs.Horizon != 5 {
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
