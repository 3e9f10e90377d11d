package shares

import (
	"math"
	"testing"

	"ibis/internal/iosched"
)

// TestImplicitTenantIdentity pins the back-compat contract: an app that
// never touches the control plane resolves to exactly its flat weight,
// for every class, including values whose product would round if the
// multiplication were not by exactly 1.
func TestImplicitTenantIdentity(t *testing.T) {
	tr := NewTree()
	for _, w := range []float64{1, 3, 32, 0.1, 1e-3, 7.000000000000001} {
		app := iosched.AppID("a")
		if err := tr.Bind(app, "", w); err != nil {
			t.Fatal(err)
		}
		for c := iosched.Class(0); int(c) < iosched.NumClasses; c++ {
			_, got, _ := tr.Resolve(app, c)
			if got != w {
				t.Fatalf("EffectiveWeight(%g, %s) = %g, want bit-identical", w, c, got)
			}
		}
		if tenantOf(tr, app) != ImplicitTenant(app) {
			t.Fatalf("tenant = %q, want %q", tenantOf(tr, app), ImplicitTenant(app))
		}
		// Re-bind with the next weight in the loop.
		tr = NewTree()
	}
}

// TestEffectiveWeightProduct checks the path product and the class
// multiplier default.
func TestEffectiveWeightProduct(t *testing.T) {
	tr := NewTree()
	if err := tr.Tenant("analytics", 3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Bind("etl", "analytics", 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetClassWeight("etl", iosched.IntermediateWrite, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, got, _ := tr.Resolve("etl", iosched.PersistentRead); got != 12 {
		t.Fatalf("PersistentRead = %g, want 12 (3 x 4 x 1)", got)
	}
	if _, got, _ := tr.Resolve("etl", iosched.IntermediateWrite); got != 6 {
		t.Fatalf("IntermediateWrite = %g, want 6 (3 x 4 x 0.5)", got)
	}
	// Reweighting the tenant scales every member.
	if err := tr.Tenant("analytics", 6); err != nil {
		t.Fatal(err)
	}
	if _, got, _ := tr.Resolve("etl", iosched.PersistentRead); got != 24 {
		t.Fatalf("after tenant reweight = %g, want 24", got)
	}
}

// TestUnknownAppAutoBinds: resolving an app nobody declared must not
// fail — it is the back-compat path for raw requests.
func TestUnknownAppAutoBinds(t *testing.T) {
	tr := NewTree()
	_, w, epoch := tr.Resolve("ghost", iosched.PersistentRead)
	if w != 1 {
		t.Fatalf("unknown app weight = %g, want 1", w)
	}
	if epoch == 0 {
		t.Fatal("auto-bind did not bump the epoch")
	}
	if got := tenantOf(tr, "ghost"); got != "~ghost" {
		t.Fatalf("tenant = %q, want ~ghost", got)
	}
}

// TestValidation: every public mutator rejects bad input with an error
// and leaves the tree untouched.
func TestValidation(t *testing.T) {
	tr := NewTree()
	cases := []func() error{
		func() error { return tr.Tenant("", 1) },
		func() error { return tr.Tenant("~x", 1) },
		func() error { return tr.Tenant("t", 0) },
		func() error { return tr.Tenant("t", -2) },
		func() error { return tr.Tenant("t", math.Inf(1)) },
		func() error { return tr.Tenant("t", math.NaN()) },
		func() error { return tr.Bind("", "t", 1) },
		func() error { return tr.Bind("a", "~t", 1) },
		func() error { return tr.Bind("a", "t", 0) },
		func() error { return tr.SetAppWeight("", 1) },
		func() error { return tr.SetAppWeight("a", -1) },
		func() error { return tr.SetClassWeight("a", iosched.Class(99), 1) },
		func() error { return tr.SetClassWeight("a", iosched.PersistentRead, 0) },
	}
	for i, fn := range cases {
		if err := fn(); err == nil {
			t.Errorf("case %d: invalid mutation accepted", i)
		}
	}
	if tr.Epoch() != 0 {
		t.Fatalf("rejected mutations bumped the epoch to %d", tr.Epoch())
	}
	if len(tr.Transitions()) != 0 {
		t.Fatalf("rejected mutations were logged: %v", tr.Transitions())
	}
}

// TestEpochAndTransitionLog: every accepted mutation bumps the epoch
// exactly once and lands in the log with the right kind; no-op
// mutations (same value) bump nothing.
func TestEpochAndTransitionLog(t *testing.T) {
	tr := NewTree()
	now := 7.5
	tr.SetClock(func() float64 { return now })

	steps := []struct {
		fn   func() error
		kind string
	}{
		{func() error { return tr.Tenant("t", 2) }, "tenant"},
		{func() error { return tr.Bind("a", "t", 4) }, "bind"},
		{func() error { return tr.SetAppWeight("a", 8) }, "app-weight"},
		{func() error { return tr.SetClassWeight("a", iosched.PersistentRead, 0.5) }, "class-weight"},
	}
	for i, st := range steps {
		if err := st.fn(); err != nil {
			t.Fatal(err)
		}
		if tr.Epoch() != uint64(i+1) {
			t.Fatalf("after step %d epoch = %d, want %d", i, tr.Epoch(), i+1)
		}
		log := tr.Transitions()
		last := log[len(log)-1]
		if last.Kind != st.kind || last.Epoch != uint64(i+1) || last.Time != now {
			t.Fatalf("step %d logged %+v, want kind %q epoch %d time %g", i, last, st.kind, i+1, now)
		}
	}
	// Idempotent repeats are silent.
	before := tr.Epoch()
	if err := tr.Tenant("t", 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetAppWeight("a", 8); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetClassWeight("a", iosched.PersistentRead, 0.5); err != nil {
		t.Fatal(err)
	}
	if tr.Epoch() != before {
		t.Fatalf("no-op mutations bumped the epoch %d -> %d", before, tr.Epoch())
	}
}

// TestOnChangeFiresOnlyOnEffectiveChange: first binds and declarations
// must not fire (nothing to reconverge); changes to weights already in
// force must.
func TestOnChangeFiresOnlyOnEffectiveChange(t *testing.T) {
	tr := NewTree()
	var fired []Transition
	tr.OnChange(func(x Transition) { fired = append(fired, x) })

	if err := tr.Tenant("t", 2); err != nil { // declaration: no observer
		t.Fatal(err)
	}
	if err := tr.Bind("a", "t", 4); err != nil { // first bind: no observer
		t.Fatal(err)
	}
	if len(fired) != 0 {
		t.Fatalf("first bind/declare fired %d observers", len(fired))
	}
	if err := tr.SetAppWeight("a", 8); err != nil { // live change: fires
		t.Fatal(err)
	}
	if err := tr.Tenant("t", 5); err != nil { // tenant reweight: fires
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("effective changes fired %d observers, want 2", len(fired))
	}
	if fired[0].Kind != "app-weight" || fired[1].Kind != "tenant" {
		t.Fatalf("observer kinds %q/%q, want app-weight/tenant", fired[0].Kind, fired[1].Kind)
	}
}

// TestSetAppWeightPinsAgainstRebind: a control-plane reweight survives
// a framework re-Bind of the same app id (e.g. a multi-stage Hive
// query resubmitting), but the re-bind can still move the tenant.
func TestSetAppWeightPinsAgainstRebind(t *testing.T) {
	tr := NewTree()
	if err := tr.Bind("q1", "batch", 2); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetAppWeight("q1", 16); err != nil {
		t.Fatal(err)
	}
	if err := tr.Bind("q1", "batch", 2); err != nil { // stage resubmit
		t.Fatal(err)
	}
	if got := tr.AppWeight("q1"); got != 16 {
		t.Fatalf("rebind overrode pinned weight: %g, want 16", got)
	}
	if err := tr.Bind("q1", "interactive", 2); err != nil {
		t.Fatal(err)
	}
	if got := tenantOf(tr, "q1"); got != "interactive" {
		t.Fatalf("rebind did not move tenant: %q", got)
	}
	if got := tr.AppWeight("q1"); got != 16 {
		t.Fatalf("tenant move overrode pinned weight: %g, want 16", got)
	}
}

// TestEnumerations covers the sorted accessors the broker iterates for
// deterministic aggregation.
func TestEnumerations(t *testing.T) {
	tr := NewTree()
	for _, b := range []struct {
		app    iosched.AppID
		tenant string
	}{{"c", "t2"}, {"a", "t1"}, {"b", "t1"}} {
		if err := tr.Bind(b.app, b.tenant, 1); err != nil {
			t.Fatal(err)
		}
	}
	apps := tr.Apps()
	if len(apps) != 3 || apps[0] != "a" || apps[1] != "b" || apps[2] != "c" {
		t.Fatalf("Apps = %v, want [a b c]", apps)
	}
	t1 := tr.AppsOf("t1")
	if len(t1) != 2 || t1[0] != "a" || t1[1] != "b" {
		t.Fatalf("AppsOf(t1) = %v, want [a b]", t1)
	}
	tenants := tr.Tenants()
	if len(tenants) != 2 || tenants[0] != "t1" || tenants[1] != "t2" {
		t.Fatalf("Tenants = %v, want [t1 t2]", tenants)
	}
	if w := tr.TenantWeight("t1"); w != 1 {
		t.Fatalf("auto-declared tenant weight = %g, want 1", w)
	}
	if w := tr.TenantWeight("missing"); w != 0 {
		t.Fatalf("unknown tenant weight = %g, want 0", w)
	}
	if w := tr.TenantWeight("~x"); w != 1 {
		t.Fatalf("implicit tenant weight = %g, want 1", w)
	}
}

// tenantOf names app's tenant in tr, auto-binding an unknown app to its
// implicit singleton tenant.
func tenantOf(tr *Tree, app iosched.AppID) string { return tr.TenantName(tr.TenantAt(tr.Index(app))) }
