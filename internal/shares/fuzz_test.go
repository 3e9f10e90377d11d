package shares

// Native fuzz target for share-tree mutations. The fuzzer decodes a
// byte stream into a sequence of control-plane operations — tenant
// declarations, binds, live reweights, class multipliers, including
// invalid weights and reserved names — and replays it against both the
// Tree and a flat shadow model. Invariants:
//
//   - the tree accepts exactly the operations the shadow model deems
//     valid (invalid weights and reserved "~" names error, never panic);
//   - the epoch is monotone and bumps exactly when observable state
//     changed (no-op mutations leave it untouched);
//   - EffectiveWeight is bit-identical to tenantWeight × appWeight ×
//     classMult from the shadow model, for every app and class;
//   - SetAppWeight pins an app's weight against later Bind overrides.
//
// Seeds mirror the curated reconfiguration tests: declare → bind →
// reweight → move, plus error-path streams.

import (
	"math"
	"testing"

	"ibis/internal/iosched"
)

// shadowApp mirrors appNode in the shadow model.
type shadowApp struct {
	tenant   string
	weight   float64
	class    [iosched.NumClasses]float64
	explicit bool
}

func FuzzShareTree(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x42, 0x23, 0x04, 0x35})
	f.Add([]byte{0xfc, 0xfd, 0xfe, 0xff, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{0x10, 0x51, 0x92, 0xd3, 0x14, 0x55, 0x96, 0xd7})
	f.Add([]byte{0x08, 0x49, 0x8a, 0xcb, 0x0c, 0x4d})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		tree := NewTree()
		tenants := map[string]float64{}
		apps := map[iosched.AppID]*shadowApp{}

		tenantNames := []string{"alpha", "beta", "gamma", "~res"}
		appIDs := []iosched.AppID{"app-a", "app-b", "app-c", "app-d"}
		weights := []float64{1, 2.5, 7, 0.125, 0, -3, math.NaN(), math.Inf(1)}

		// ensureShadow mirrors Tree.Index: auto-bind at weight 1 under
		// the implicit singleton tenant.
		ensureShadow := func(app iosched.AppID) *shadowApp {
			sa := apps[app]
			if sa == nil {
				sa = &shadowApp{tenant: ImplicitTenant(app), weight: 1}
				for i := range sa.class {
					sa.class[i] = 1
				}
				if _, ok := tenants[sa.tenant]; !ok {
					tenants[sa.tenant] = 1
				}
				apps[app] = sa
			}
			return sa
		}

		lastEpoch := tree.Epoch()
		for _, b := range ops {
			op := b & 0x03
			name := tenantNames[(b>>2)&0x03]
			app := appIDs[(b>>4)&0x03]
			w := weights[(b>>5)&0x07]
			wantChange := false
			var wantErr bool
			switch op {
			case 0: // Tenant
				wantErr = name[0] == '~' || !validWeight(w)
				if !wantErr {
					old, ok := tenants[name]
					wantChange = !ok || old != w
					tenants[name] = w
				}
				err := tree.Tenant(name, w)
				if (err != nil) != wantErr {
					t.Fatalf("Tenant(%q, %v): err=%v, want error=%v", name, w, err, wantErr)
				}
			case 1: // Bind
				tname := name
				if b&0x80 != 0 {
					tname = "" // implicit singleton
				}
				wantErr = (tname != "" && tname[0] == '~') || !validWeight(w)
				if !wantErr {
					resolved := tname
					if resolved == "" {
						resolved = ImplicitTenant(app)
					}
					if _, ok := tenants[resolved]; !ok {
						tenants[resolved] = 1
					}
					sa := apps[app]
					if sa == nil {
						sa = &shadowApp{tenant: resolved, weight: w}
						for i := range sa.class {
							sa.class[i] = 1
						}
						apps[app] = sa
						wantChange = true
					} else {
						moved := sa.tenant != resolved
						old := sa.weight
						if !sa.explicit {
							sa.weight = w
						}
						sa.tenant = resolved
						wantChange = moved || old != sa.weight
					}
				}
				err := tree.Bind(app, tname, w)
				if (err != nil) != wantErr {
					t.Fatalf("Bind(%q, %q, %v): err=%v, want error=%v", app, tname, w, err, wantErr)
				}
			case 2: // SetAppWeight
				wantErr = !validWeight(w)
				if !wantErr {
					sa := apps[app]
					if sa == nil {
						sa = ensureShadow(app)
						sa.weight = w
						wantChange = true
					} else if sa.weight != w {
						sa.weight = w
						wantChange = true
					}
					sa.explicit = true
				}
				err := tree.SetAppWeight(app, w)
				if (err != nil) != wantErr {
					t.Fatalf("SetAppWeight(%q, %v): err=%v, want error=%v", app, w, err, wantErr)
				}
			case 3: // SetClassWeight
				class := iosched.Class(int(b>>2) % iosched.NumClasses)
				wantErr = !validWeight(w)
				if !wantErr {
					// Auto-binding an unknown app records a "bind"
					// transition even if the multiplier is a no-op.
					wasKnown := apps[app] != nil
					sa := ensureShadow(app)
					wantChange = !wasKnown || sa.class[class] != w
					sa.class[class] = w
				}
				err := tree.SetClassWeight(app, class, w)
				if (err != nil) != wantErr {
					t.Fatalf("SetClassWeight(%q, %v, %v): err=%v, want error=%v", app, class, w, err, wantErr)
				}
			}
			epoch := tree.Epoch()
			if epoch < lastEpoch {
				t.Fatalf("epoch regressed: %d after %d", epoch, lastEpoch)
			}
			if wantChange && epoch == lastEpoch {
				t.Fatalf("mutation changed state but epoch stayed at %d", epoch)
			}
			if !wantChange && epoch != lastEpoch {
				t.Fatalf("no-op mutation bumped epoch %d -> %d", lastEpoch, epoch)
			}
			lastEpoch = epoch
		}

		// The tree and the shadow model must agree on every resolved
		// weight, bit for bit (the product is computed in the same
		// order: tenant × app × class).
		for app, sa := range apps {
			if got := tenantOf(tree, app); got != sa.tenant {
				t.Fatalf("app %q tenant %q, want %q", app, got, sa.tenant)
			}
			if got := tree.AppWeight(app); got != sa.weight {
				t.Fatalf("app %q weight %v, want %v", app, got, sa.weight)
			}
			for c := 0; c < iosched.NumClasses; c++ {
				_, got, _ := tree.Resolve(app, iosched.Class(c))
				want := tenants[sa.tenant] * sa.weight * sa.class[c]
				if got != want {
					t.Fatalf("app %q class %d effective weight %v, want %v", app, c, got, want)
				}
			}
		}
		for name, w := range tenants {
			if got := tree.TenantWeight(name); got != w {
				t.Fatalf("tenant %q weight %v, want %v", name, got, w)
			}
		}
	})
}
