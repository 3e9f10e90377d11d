// Package shares is the runtime control plane for I/O weights: a
// cluster-wide share tree (tenant → application → I/O class) with
// epoch-versioned effective-weight resolution.
//
// The seed reproduction froze every weight at build time — JobSpec
// carried a scalar that was copied into each iosched.Request at
// submission. The tree inverts that flow: requests carry a reference
// to the tree and schedulers resolve the effective weight when they
// compute start/finish tags, so a weight change made mid-run takes
// effect on the very next tag, cluster-wide, without re-submitting
// anything.
//
// Semantics:
//
//   - Every application belongs to exactly one tenant. Applications
//     never explicitly bound to a tenant get an implicit singleton
//     tenant of weight 1 named after them, which makes the effective
//     weight bit-identical to the flat scalar it replaces
//     (1 × w × 1 == w in IEEE arithmetic).
//   - The effective weight of (app, class) is
//     tenantWeight × appWeight × classMultiplier; class multipliers
//     default to 1 and let an operator deprioritize, say, intermediate
//     spills relative to persistent reads of the same application.
//   - Every mutation bumps a global epoch. Schedulers stamp the epoch
//     they resolved against onto the request, the broker piggybacks
//     the current epoch on coordination exchanges, and the audit layer
//     opens a bounded reconvergence window around each weight change —
//     together these make a live reweight observable and checkable end
//     to end.
//
// The tree is not safe for concurrent use; the simulation is
// single-threaded by construction.
package shares

import (
	"fmt"
	"math"
	"sort"

	"ibis/internal/iosched"
)

// ImplicitTenant names the singleton tenant an unbound application is
// attributed to. The "~" prefix is reserved: explicit tenants may not
// use it, so implicit tenants can never collide with declared ones.
func ImplicitTenant(app iosched.AppID) string { return "~" + string(app) }

// Transition records one control-plane mutation, for the epoch log
// exposed through the public API and stamped into traces.
type Transition struct {
	// Time is the virtual time of the mutation (0 before a clock is
	// attached).
	Time float64
	// Epoch is the tree epoch after the mutation.
	Epoch uint64
	// Kind is the mutation type: "tenant", "bind", "app-weight",
	// "class-weight".
	Kind string
	// Tenant and App locate the mutated node (either may be empty).
	Tenant string
	App    iosched.AppID
	// Old and New are the mutated weight's values (Old is 0 for a
	// first bind).
	Old, New float64
}

// TenantIdx is a tenant's dense index in its tree: tenants are
// numbered in the order they are first declared or auto-declared, and
// an index is never reused.
type TenantIdx int32

type tenantNode struct {
	name   string
	weight float64
}

type appNode struct {
	id     iosched.AppID
	tenant TenantIdx
	weight float64
	class  [iosched.NumClasses]float64 // multipliers, default 1
	// explicit marks a weight set through SetAppWeight (the control
	// plane); later re-binds (e.g. a Hive stage resubmitting the same
	// app id) no longer override it.
	explicit bool
}

// Tree is the share tree. The zero value is not usable; call NewTree.
//
// Apps and tenants are numbered densely as they bind (iosched.AppIdx,
// TenantIdx), so everything keyed by app or tenant downstream — the
// weight resolution here, SFQ flows, the broker's totals, the root's
// books — is a slice read. Names are hashed once, when a name is first
// resolved to its index.
type Tree struct {
	clock     func() float64
	tenantIdx map[string]TenantIdx
	tenants   []tenantNode // by TenantIdx
	appIdx    map[iosched.AppID]iosched.AppIdx
	apps      []appNode // by AppIdx
	epoch     uint64
	log       []Transition
	// onChange observers fire on mutations that changed an existing
	// effective weight (not on first binds — a brand-new flow has no
	// scheduling history to reconverge).
	onChange []func(Transition)
}

// NewTree creates an empty share tree at epoch 0.
func NewTree() *Tree {
	return &Tree{
		tenantIdx: make(map[string]TenantIdx),
		appIdx:    make(map[iosched.AppID]iosched.AppIdx),
	}
}

// SetClock attaches the virtual-time source used to stamp transitions
// (typically sim.Engine.Now).
func (t *Tree) SetClock(clock func() float64) { t.clock = clock }

// OnChange registers an observer fired after every mutation that
// changed the effective weight of at least one already-bound
// application (audit and trace wire in here). First binds do not fire.
func (t *Tree) OnChange(fn func(Transition)) { t.onChange = append(t.onChange, fn) }

// Epoch returns the current tree version. It increments on every
// mutation, including first binds.
func (t *Tree) Epoch() uint64 { return t.epoch }

// Transitions returns a copy of the mutation log.
func (t *Tree) Transitions() []Transition {
	out := make([]Transition, len(t.log))
	copy(out, t.log)
	return out
}

func (t *Tree) now() float64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

func validWeight(w float64) bool { return w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) }

// record bumps the epoch, appends to the log, and (when notify is
// set) tells observers an existing effective weight changed.
func (t *Tree) record(kind, tenant string, app iosched.AppID, old, new float64, notify bool) {
	t.epoch++
	tr := Transition{Time: t.now(), Epoch: t.epoch, Kind: kind, Tenant: tenant, App: app, Old: old, New: new}
	t.log = append(t.log, tr)
	if notify {
		for _, fn := range t.onChange {
			fn(tr)
		}
	}
}

// Tenant declares a tenant or updates its weight. Tenant names starting
// with "~" are reserved for the implicit singletons.
func (t *Tree) Tenant(name string, weight float64) error {
	if name == "" {
		return fmt.Errorf("shares: tenant name must be non-empty")
	}
	if name[0] == '~' {
		return fmt.Errorf("shares: tenant name %q is reserved (implicit-tenant prefix)", name)
	}
	if !validWeight(weight) {
		return fmt.Errorf("shares: tenant %q weight must be positive and finite, got %g", name, weight)
	}
	ti, ok := t.tenantIdx[name]
	if !ok {
		t.addTenant(name, weight)
		t.record("tenant", name, "", 0, weight, false)
		return nil
	}
	tn := &t.tenants[ti]
	if tn.weight == weight {
		return nil
	}
	old := tn.weight
	tn.weight = weight
	t.record("tenant", name, "", old, weight, true)
	return nil
}

// TenantWeight returns a declared tenant's weight (implicit tenants
// report 1; unknown explicit tenants report 0).
func (t *Tree) TenantWeight(name string) float64 {
	if ti, ok := t.tenantIdx[name]; ok {
		return t.tenants[ti].weight
	}
	if name != "" && name[0] == '~' {
		return 1
	}
	return 0
}

func (t *Tree) addTenant(name string, weight float64) TenantIdx {
	ti := TenantIdx(len(t.tenants))
	t.tenants = append(t.tenants, tenantNode{name: name, weight: weight})
	t.tenantIdx[name] = ti
	return ti
}

// ensureTenant resolves a binding's tenant name to its index, creating
// implicit or auto-declared tenants as needed. An empty name means "the
// app's implicit singleton tenant".
func (t *Tree) ensureTenant(name string, app iosched.AppID) (TenantIdx, error) {
	if name == "" {
		name = ImplicitTenant(app)
	} else if name[0] == '~' {
		return 0, fmt.Errorf("shares: tenant name %q is reserved (implicit-tenant prefix)", name)
	}
	ti, ok := t.tenantIdx[name]
	if !ok {
		// Auto-declare at weight 1; an explicit Tenant() call can
		// re-weight it at any time.
		ti = t.addTenant(name, 1)
	}
	return ti, nil
}

// Bind attributes an application to a tenant with the given weight.
// An empty tenant name binds the app to its implicit singleton tenant
// (weight 1), reproducing flat per-app weights exactly. Re-binding an
// existing app moves it between tenants and updates its weight —
// unless the weight was pinned by SetAppWeight, in which case the
// control-plane value wins and only the tenant move applies. Jobs and
// queries bind at submission; this is how mapreduce and hive attribute
// work to tenants.
func (t *Tree) Bind(app iosched.AppID, tenant string, weight float64) error {
	if app == "" {
		return fmt.Errorf("shares: bind with empty app id")
	}
	if !validWeight(weight) {
		return fmt.Errorf("shares: app %q weight must be positive and finite, got %g", app, weight)
	}
	ti, err := t.ensureTenant(tenant, app)
	if err != nil {
		return err
	}
	ai, ok := t.appIdx[app]
	if !ok {
		an := appNode{id: app, tenant: ti, weight: weight}
		for i := range an.class {
			an.class[i] = 1
		}
		t.appIdx[app] = iosched.AppIdx(len(t.apps))
		t.apps = append(t.apps, an)
		t.record("bind", t.tenants[ti].name, app, 0, weight, false)
		return nil
	}
	an := &t.apps[ai]
	moved := an.tenant != ti
	old := an.weight
	if !an.explicit {
		an.weight = weight
	}
	if moved || old != an.weight {
		an.tenant = ti
		t.record("bind", t.tenants[ti].name, app, old, an.weight, true)
	}
	return nil
}

// SetAppWeight is the control plane's live reweight: it changes the
// application's weight effective at its next tag, cluster-wide, and
// pins it against later Bind overrides. Unknown apps are bound to
// their implicit tenant first.
func (t *Tree) SetAppWeight(app iosched.AppID, weight float64) error {
	if app == "" {
		return fmt.Errorf("shares: reweight with empty app id")
	}
	if !validWeight(weight) {
		return fmt.Errorf("shares: app %q weight must be positive and finite, got %g", app, weight)
	}
	ai, ok := t.appIdx[app]
	if !ok {
		if err := t.Bind(app, "", weight); err != nil {
			return err
		}
		t.apps[t.appIdx[app]].explicit = true
		return nil
	}
	an := &t.apps[ai]
	an.explicit = true
	if an.weight == weight {
		return nil
	}
	old := an.weight
	an.weight = weight
	t.record("app-weight", t.tenants[an.tenant].name, app, old, weight, true)
	return nil
}

// SetClassWeight sets the application's per-class multiplier (default
// 1). Unknown apps are bound to their implicit tenant at weight 1.
func (t *Tree) SetClassWeight(app iosched.AppID, class iosched.Class, mult float64) error {
	if class < 0 || int(class) >= iosched.NumClasses {
		return fmt.Errorf("shares: unknown class %d", int(class))
	}
	if !validWeight(mult) {
		return fmt.Errorf("shares: app %q class %s multiplier must be positive and finite, got %g", app, class, mult)
	}
	ai := t.Index(app, iosched.NoApp)
	if ai == iosched.NoApp {
		return fmt.Errorf("shares: class weight with empty app id")
	}
	an := &t.apps[ai]
	if an.class[class] == mult {
		return nil
	}
	old := an.class[class]
	an.class[class] = mult
	t.record("class-weight", t.tenants[an.tenant].name, app, old, mult, true)
	return nil
}

// Index returns app's dense index. hint is the caller's cached index
// for app, if any (iosched.NoApp otherwise): it is checked against the
// app's name and returned without hashing when it matches, so an index
// from another tree can never be mistaken for one of this tree's.
// Unknown apps auto-bind to their implicit singleton tenant at weight
// 1 — the back-compat default for requests constructed outside the job
// frameworks. The empty app id has no index (iosched.NoApp).
func (t *Tree) Index(app iosched.AppID, hint iosched.AppIdx) iosched.AppIdx {
	if uint(hint) < uint(len(t.apps)) && t.apps[hint].id == app {
		return hint
	}
	if ai, ok := t.appIdx[app]; ok {
		return ai
	}
	if err := t.Bind(app, "", 1); err != nil {
		return iosched.NoApp
	}
	return t.appIdx[app]
}

// Resolve implements iosched.WeightSource: app's index, the effective
// weight a scheduler uses when tagging a request of (app, class), and
// the epoch it was resolved at. Unknown apps auto-bind at weight 1 under their
// implicit tenant. For default bindings the weight is bit-identical to
// the app weight (1 × w × 1 == w).
func (t *Tree) Resolve(app iosched.AppID, hint iosched.AppIdx, class iosched.Class) (iosched.AppIdx, float64, uint64) {
	ai := t.Index(app, hint)
	if ai == iosched.NoApp || class < 0 || int(class) >= iosched.NumClasses {
		return ai, 0, t.epoch
	}
	an := &t.apps[ai]
	return ai, t.tenants[an.tenant].weight * an.weight * an.class[class], t.epoch
}

var _ iosched.WeightSource = (*Tree)(nil)

// TenantOf returns the name of the tenant an application belongs to,
// auto-binding unknown apps to their implicit singleton tenant.
func (t *Tree) TenantOf(app iosched.AppID) string {
	ai := t.Index(app, iosched.NoApp)
	if ai == iosched.NoApp {
		return ImplicitTenant(app)
	}
	return t.tenants[t.apps[ai].tenant].name
}

// TenantAt returns the index of the tenant app ai belongs to.
func (t *Tree) TenantAt(ai iosched.AppIdx) TenantIdx { return t.apps[ai].tenant }

// TenantIndex returns a tenant's index, declaring it at weight 1 when
// unknown. Unlike Tenant it accepts an implicit name: the coordination
// plane passes tenant names through from the wire. A declaration moves
// no epoch, as no app is bound to the new tenant.
func (t *Tree) TenantIndex(name string) TenantIdx {
	if ti, ok := t.tenantIdx[name]; ok {
		return ti
	}
	return t.addTenant(name, 1)
}

// AppName and TenantName resolve indices back to names.
func (t *Tree) AppName(ai iosched.AppIdx) iosched.AppID { return t.apps[ai].id }
func (t *Tree) TenantName(ti TenantIdx) string          { return t.tenants[ti].name }

// NumApps and NumTenants bound the indices handed out so far.
func (t *Tree) NumApps() int    { return len(t.apps) }
func (t *Tree) NumTenants() int { return len(t.tenants) }

// Lookup returns a bound app's index, without binding an unknown one.
func (t *Tree) Lookup(app iosched.AppID) (iosched.AppIdx, bool) {
	ai, ok := t.appIdx[app]
	return ai, ok
}

// AppWeight returns the app's own weight factor (0 if unbound).
func (t *Tree) AppWeight(app iosched.AppID) float64 {
	if ai, ok := t.appIdx[app]; ok {
		return t.apps[ai].weight
	}
	return 0
}

// Tenants returns the declared and implicit tenant names, sorted.
func (t *Tree) Tenants() []string {
	out := make([]string, 0, len(t.tenants))
	for _, tn := range t.tenants {
		out = append(out, tn.name)
	}
	sort.Strings(out)
	return out
}

// AppsOf returns the applications bound to a tenant, sorted.
func (t *Tree) AppsOf(tenant string) []iosched.AppID {
	var out []iosched.AppID
	for _, an := range t.apps {
		if t.tenants[an.tenant].name == tenant {
			out = append(out, an.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apps returns all bound applications, sorted.
func (t *Tree) Apps() []iosched.AppID {
	out := make([]iosched.AppID, 0, len(t.apps))
	for _, an := range t.apps {
		out = append(out, an.id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
