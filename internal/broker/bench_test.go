package broker

import (
	"fmt"
	"testing"

	"ibis/internal/iosched"
	"ibis/internal/shares"
)

// BenchmarkFederationConservation measures the root's audited books:
// CheckConservation on a steady 8-partition aggregator whose
// partitions each mirror 600 of 1600 apps in 400 tenants, the
// federated-400 shape. CI requires it to allocate nothing.
func BenchmarkFederationConservation(b *testing.B) {
	const parts, apps, perPart, tenants = 8, 1600, 600, 400
	tree := shares.NewTree()
	for i := range apps {
		if err := tree.Bind(iosched.AppID(fmt.Sprintf("app-%04d", i)), fmt.Sprintf("t-%03d", i%tenants), 1); err != nil {
			b.Fatal(err)
		}
	}
	ag := NewAggregator(tree)
	for p := range parts {
		part := NewPartition(p, tree, 0)
		vec := make(map[iosched.AppID]float64, perPart)
		for j := range perPart {
			vec[iosched.AppID(fmt.Sprintf("app-%04d", (p*apps/parts+j)%apps))] = float64(1+j) * DefaultQuantum
		}
		if _, err := part.Exchange("n", costs(vec), 1); err != nil {
			b.Fatal(err)
		}
		msg, _, _ := part.BuildUplink(1)
		if _, err := ag.HandleUplink(p, msg); err != nil {
			b.Fatal(err)
		}
	}
	if err := ag.CheckConservation(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := ag.CheckConservation(); err != nil {
			b.Fatal(err)
		}
	}
}
