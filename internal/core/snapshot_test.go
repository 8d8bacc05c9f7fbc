package core

import (
	"reflect"
	"testing"
)

// driveController feeds n collections through a policy so it accumulates
// nontrivial internal state.
func driveController(p RatePolicy, h HeapState, n int) {
	var now Clock
	res := collRes(1000, 10, 10, 5)
	for i := 0; i < n; i++ {
		now.Overwrites += 100
		now.AppIO += 500
		p.ShouldCollect(now)
		p.AfterCollection(now, h, res)
	}
}

// snapshotRoundTrip captures src's state into a freshly built twin and
// verifies both produce identical behavior afterwards.
func snapshotRoundTrip(t *testing.T, name string, src, dst RatePolicy) {
	t.Helper()
	h := &fakeHeap{db: 100000, parts: 4, sumPO: 60, actGarb: 4000}
	driveController(src, h, 5)

	state, err := SnapshotComponent(src)
	if err != nil {
		t.Fatalf("%s: snapshot: %v", name, err)
	}
	if err := RestoreComponent(dst, state); err != nil {
		t.Fatalf("%s: restore: %v", name, err)
	}
	// Re-snapshot must be identical.
	again, err := SnapshotComponent(dst)
	if err != nil {
		t.Fatalf("%s: re-snapshot: %v", name, err)
	}
	if !reflect.DeepEqual(state, again) {
		t.Fatalf("%s: state changed across restore", name)
	}
	// Identical future behavior.
	var now Clock
	res := collRes(800, 8, 8, 3)
	for i := 0; i < 3; i++ {
		now.Overwrites += 50
		now.AppIO += 250
		a := src.ShouldCollect(now)
		b := dst.ShouldCollect(now)
		if a != b {
			t.Fatalf("%s: step %d: ShouldCollect diverged (%v vs %v)", name, i, a, b)
		}
		src.AfterCollection(now, h, res)
		dst.AfterCollection(now, h, res)
	}
	sa, _ := SnapshotComponent(src)
	sb, _ := SnapshotComponent(dst)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: states diverged after identical inputs", name)
	}
}

func TestPolicySnapshotRoundTrips(t *testing.T) {
	mkFixed := func() RatePolicy {
		p, err := NewFixedRate(75)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkSAIO := func() RatePolicy {
		p, err := NewSAIO(SAIOConfig{Frac: 0.1, Hist: 3})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkSAGA := func() RatePolicy {
		est, err := NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSAGA(SAGAConfig{Frac: 0.05}, est)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkPI := func() RatePolicy {
		p, err := NewPIController(PIConfig{Frac: 0.05}, NewCGSCB())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkCoupled := func() RatePolicy {
		p, err := NewCoupled(CoupledConfig{IOFrac: 0.1, GarbFrac: 0.05}, NewCGSCB())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkOpp := func() RatePolicy {
		inner, err := NewFixedRate(50)
		if err != nil {
			t.Fatal(err)
		}
		est, err := NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewOpportunistic(inner, est, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkSAGAWindow := func() RatePolicy {
		est, err := NewFGSWindow(4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSAGA(SAGAConfig{Frac: 0.05}, est)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkSAGAPP := func() RatePolicy {
		est, err := NewFGSPerPartition(0.8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSAGA(SAGAConfig{Frac: 0.05}, est)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mkSAGAFallback := func() RatePolicy {
		prim, err := NewFGSHB(0.8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBreaker(BreakerConfig{TripAfter: 1, HalfOpenProbes: 3}, prim, NewCGSCB())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewSAGA(SAGAConfig{Frac: 0.05}, b)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name string
		mk   func() RatePolicy
	}{
		{"fixed", mkFixed},
		{"saio", mkSAIO},
		{"saga-fgshb", mkSAGA},
		{"pi", mkPI},
		{"coupled", mkCoupled},
		{"opportunistic", mkOpp},
		{"saga-window", mkSAGAWindow},
		{"saga-perpartition", mkSAGAPP},
		{"saga-fallback", mkSAGAFallback},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshotRoundTrip(t, tc.name, tc.mk(), tc.mk())
		})
	}
}

func TestStatelessComponentsSnapshot(t *testing.T) {
	// NeverCollect and OracleEstimator carry no state: SnapshotComponent
	// yields nil and RestoreComponent accepts it.
	for _, v := range []any{NeverCollect{}, OracleEstimator{}} {
		state, err := SnapshotComponent(v)
		if err != nil || state != nil {
			t.Fatalf("%T: state=%v err=%v", v, state, err)
		}
		if err := RestoreComponent(v, nil); err != nil {
			t.Fatalf("%T: restore nil: %v", v, err)
		}
		if err := RestoreComponent(v, []byte{1}); err == nil {
			t.Fatalf("%T: accepted state bytes for stateless component", v)
		}
	}
}
