package core

import (
	"math"
	"strings"
	"testing"

	"odbgc/internal/gc"
)

// scriptedEstimator returns a scripted sequence of estimates, repeating the
// last one when exhausted.
type scriptedEstimator struct {
	name string
	vals []float64
	i    int
	obs  int
}

func (e *scriptedEstimator) Name() string {
	if e.name == "" {
		return "scripted"
	}
	return e.name
}
func (e *scriptedEstimator) ObserveCollection(HeapState, gc.CollectionResult) {
	e.obs++
}
func (e *scriptedEstimator) EstimateGarbage(HeapState) float64 {
	v := e.vals[e.i]
	if e.i < len(e.vals)-1 {
		e.i++
	}
	return v
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// breakerHeap is the database state the scripted breaker tests run
// against: every scripted reading fits in it.
var breakerHeap = &fakeHeap{db: 10_000, parts: 4}

func newTestBreaker(t *testing.T, cfg BreakerConfig, primary, fallback Estimator) *Breaker {
	t.Helper()
	b, err := NewBreaker(cfg, primary, fallback)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFallbackTripAndRecover walks the full cycle: a healthy primary
// serves, bad readings are papered over by the fallback until the breaker
// trips, and after the cooldown good half-open probes serve the primary
// and close the breaker again. Both estimators observe every collection.
func TestFallbackTripAndRecover(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4}
	primary := &scriptedEstimator{vals: []float64{
		5000,                    // good
		math.NaN(), math.Inf(1), // bad x2 -> trips at 2nd
		4000,             // cooldown of 1 -> half-open; fallback still serves
		4100, 4200, 4300, // good probes x3 -> closes at 3rd
	}}
	fallback := &scriptedEstimator{vals: []float64{7000}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 2, Cooldown: 1, HalfOpenProbes: 3}, primary, fallback)

	res := collRes(1000, 10, 10, 5)
	for i, want := range []struct {
		est   float64
		state BreakerState
	}{
		{5000, BreakerClosed},
		{7000, BreakerClosed}, // 1st bad reading: below TripAfter, never served
		{7000, BreakerOpen},
		{7000, BreakerHalfOpen},
		{4100, BreakerHalfOpen}, // good probes serve the primary
		{4200, BreakerHalfOpen},
		{4300, BreakerClosed},
	} {
		b.ObserveCollection(h, res)
		if got := b.EstimateGarbage(h); got != want.est || b.State() != want.state {
			t.Fatalf("step %d: got %v in state %v, want %v in state %v", i, got, b.State(), want.est, want.state)
		}
	}
	if b.Trips() != 1 || b.Recoveries() != 1 {
		t.Fatalf("trips=%d recoveries=%d, want 1/1", b.Trips(), b.Recoveries())
	}
	if primary.obs != 7 || fallback.obs != 7 {
		t.Fatalf("observations primary=%d fallback=%d, want 7 each", primary.obs, fallback.obs)
	}
}

func TestFallbackRejectsImpossibleEstimates(t *testing.T) {
	h := &fakeHeap{db: 1000, parts: 1}
	primary := &scriptedEstimator{vals: []float64{5000}} // 5x the database size
	fallback := &scriptedEstimator{vals: []float64{200}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 1}, primary, fallback)
	if got := b.EstimateGarbage(h); got != 200 || b.State() != BreakerOpen {
		t.Fatalf("impossible estimate served: got %v state=%v", got, b.State())
	}
}

func TestFallbackBothSignalsGone(t *testing.T) {
	h := &fakeHeap{db: 1000, parts: 1}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 1},
		&scriptedEstimator{vals: []float64{math.NaN()}},
		&scriptedEstimator{vals: []float64{math.Inf(1)}})
	for i := 0; i < 3; i++ { // closed, then open: the answer stays 0
		if got := b.EstimateGarbage(h); got != 0 {
			t.Fatalf("estimate %d with both signals unusable: got %v, want 0", i, got)
		}
	}
}

func TestBreakerTripsAndServesFallback(t *testing.T) {
	nan := math.NaN()
	primary := &scriptedEstimator{name: "flaky", vals: append(repeat(100, 2), repeat(nan, 10)...)}
	fallback := &scriptedEstimator{name: "steady", vals: []float64{500}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 3, Cooldown: 4, HalfOpenProbes: 2}, primary, fallback)

	// Two good estimates: closed, primary value served.
	for i := 0; i < 2; i++ {
		if got := b.EstimateGarbage(breakerHeap); got != 100 {
			t.Fatalf("estimate %d = %v, want primary's 100", i, got)
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after good signals, want closed", b.State())
	}
	// Three consecutive NaNs trip it; the fallback serves from the first
	// bad signal on (the controller never sees an unusable number).
	for i := 0; i < 3; i++ {
		if got := b.EstimateGarbage(breakerHeap); got != 500 {
			t.Fatalf("bad-signal estimate %d = %v, want fallback's 500", i, got)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after %d bad signals, want open", b.State(), 3)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	nan := math.NaN()
	// 3 bad (trip) → 4 in cooldown → good probes from then on.
	primary := &scriptedEstimator{name: "flaky", vals: append(repeat(nan, 7), 42)}
	fallback := &scriptedEstimator{name: "steady", vals: []float64{500}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 3, Cooldown: 4, HalfOpenProbes: 2}, primary, fallback)
	for i := 0; i < 3; i++ {
		_ = b.EstimateGarbage(breakerHeap) // trip
	}
	if b.State() != BreakerOpen {
		t.Fatalf("not open after trip: %v", b.State())
	}
	// Cooldown: 4 estimates served by the fallback, then half-open.
	for i := 0; i < 4; i++ {
		if got := b.EstimateGarbage(breakerHeap); got != 500 {
			t.Fatalf("cooldown estimate %d = %v, want 500", i, got)
		}
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", b.State())
	}
	// Two good probes close it; probes serve the primary.
	for i := 0; i < 2; i++ {
		if got := b.EstimateGarbage(breakerHeap); got != 42 {
			t.Fatalf("probe %d = %v, want primary's 42", i, got)
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after good probes, want closed", b.State())
	}
	if b.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", b.Recoveries())
	}
	// Healthy again: primary keeps serving.
	if got := b.EstimateGarbage(breakerHeap); got != 42 {
		t.Fatalf("post-recovery estimate %v, want 42", got)
	}
}

func TestBreakerBadProbeReopens(t *testing.T) {
	// 2 bad (trip at TripAfter=2) → 2 cooldown → 1 bad probe → reopen.
	primary := &scriptedEstimator{name: "flaky", vals: []float64{math.NaN()}}
	fallback := &scriptedEstimator{name: "steady", vals: []float64{500}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 2, Cooldown: 2, HalfOpenProbes: 2}, primary, fallback)
	for i := 0; i < 2; i++ {
		_ = b.EstimateGarbage(breakerHeap) // trip 1
	}
	for i := 0; i < 2; i++ {
		_ = b.EstimateGarbage(breakerHeap) // cooldown → half-open
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if got := b.EstimateGarbage(breakerHeap); got != 500 {
		t.Fatalf("bad probe served %v, want fallback's 500", got)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after bad probe, want open", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2 (initial + re-trip)", b.Trips())
	}
}

func TestBreakerRecordFailureTrips(t *testing.T) {
	primary := &scriptedEstimator{name: "fine", vals: []float64{100}}
	fallback := &scriptedEstimator{name: "steady", vals: []float64{500}}
	b := newTestBreaker(t, BreakerConfig{TripAfter: 2, Cooldown: 2, HalfOpenProbes: 1}, primary, fallback)
	// External failures (collection errors) trip the breaker even though
	// the primary's numbers look plausible.
	b.RecordFailure()
	if b.State() != BreakerClosed {
		t.Fatalf("one failure opened the breaker early")
	}
	b.RecordFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after TripAfter failures, want open", b.State())
	}
	if b.BadSignals() != 2 {
		t.Fatalf("bad signals = %d, want 2", b.BadSignals())
	}
}

func TestBreakerObservesBothEstimators(t *testing.T) {
	primary := &scriptedEstimator{name: "p", vals: []float64{1}}
	fallback := &scriptedEstimator{name: "f", vals: []float64{2}}
	b := newTestBreaker(t, BreakerConfig{}, primary, fallback)
	b.ObserveCollection(breakerHeap, gc.CollectionResult{})
	if primary.obs != 1 || fallback.obs != 1 {
		t.Fatalf("observations primary=%d fallback=%d, want 1/1 (fallback must stay warm)", primary.obs, fallback.obs)
	}
	if b.Name() != "breaker(p->f)" {
		t.Fatalf("name = %q", b.Name())
	}
}

// TestNewBreakerRejectsNegativeConfig: zero means "default", a negative
// field is an error — never silently replaced by the default.
func TestNewBreakerRejectsNegativeConfig(t *testing.T) {
	p := &scriptedEstimator{vals: []float64{1}}
	f := &scriptedEstimator{vals: []float64{2}}
	for _, tc := range []struct {
		name string
		cfg  BreakerConfig
		want string // "" means accepted
	}{
		{"zero means defaults", BreakerConfig{}, ""},
		{"explicit", BreakerConfig{TripAfter: 1, Cooldown: 1, HalfOpenProbes: 1}, ""},
		{"negative trip", BreakerConfig{TripAfter: -3}, "TripAfter:-3"},
		{"negative cooldown", BreakerConfig{Cooldown: -1}, "Cooldown:-1"},
		{"negative probes", BreakerConfig{HalfOpenProbes: -2}, "HalfOpenProbes:-2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBreaker(tc.cfg, p, f)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				if b.cfg.TripAfter <= 0 || b.cfg.Cooldown <= 0 || b.cfg.HalfOpenProbes <= 0 {
					t.Fatalf("defaults not applied: %+v", b.cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	if _, err := NewBreaker(BreakerConfig{}, p, nil); err == nil {
		t.Fatal("nil fallback accepted")
	}
}

// TestBreakerDefaultsMatchServing: the "fallback" estimator name builds the
// breaker with the serving defaults (trip 5, cooldown 8, probes 3).
func TestBreakerDefaultsMatchServing(t *testing.T) {
	est, err := NewEstimator("fallback", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := est.(*Breaker)
	if !ok {
		t.Fatalf("fallback estimator is %T, want *Breaker", est)
	}
	if want := (BreakerConfig{TripAfter: 5, Cooldown: 8, HalfOpenProbes: 3}); b.cfg != want {
		t.Fatalf("config %+v, want %+v", b.cfg, want)
	}
	if b.Name() != "breaker(fgs-hb(0.80)->cgs-cb)" {
		t.Fatalf("name %q", b.Name())
	}
}

// TestSAGASurvivesNaNSignal: a NaN estimator must not poison SAGA's slope or
// produce a NaN interval.
func TestSAGASurvivesNaNSignal(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4, sumPO: 100}
	est := &scriptedEstimator{vals: []float64{
		3000, 4000, math.NaN(), math.NaN(), 5000,
	}}
	p, err := NewSAGA(SAGAConfig{Frac: 0.05}, est)
	if err != nil {
		t.Fatal(err)
	}
	res := collRes(1000, 10, 10, 5)
	var now Clock
	for i := 0; i < 5; i++ {
		now.Overwrites += 100
		p.AfterCollection(now, h, res)
		if iv := p.LastInterval(); iv < p.Config().DtMin || iv > p.Config().DtMax {
			t.Fatalf("step %d: interval %d outside clamp [%d,%d]",
				i, iv, p.Config().DtMin, p.Config().DtMax)
		}
		if math.IsNaN(p.LastSlope()) || math.IsInf(p.LastSlope(), 0) {
			t.Fatalf("step %d: slope poisoned: %v", i, p.LastSlope())
		}
		if math.IsNaN(p.LastEstimate()) {
			t.Fatalf("step %d: NaN estimate recorded", i)
		}
	}
	if p.BadSignals() != 2 {
		t.Fatalf("bad signals = %d, want 2", p.BadSignals())
	}
}

// TestPISurvivesNaNSignal: same for the PI controller's integral term.
func TestPISurvivesNaNSignal(t *testing.T) {
	h := &fakeHeap{db: 100000, parts: 4}
	est := &scriptedEstimator{vals: []float64{3000, math.NaN(), 4000}}
	p, err := NewPIController(PIConfig{Frac: 0.05}, est)
	if err != nil {
		t.Fatal(err)
	}
	res := collRes(1000, 10, 10, 5)
	var now Clock
	for i := 0; i < 3; i++ {
		now.Overwrites += 100
		p.AfterCollection(now, h, res)
		if iv := p.LastInterval(); iv < p.Config().DtMin || iv > p.Config().DtMax {
			t.Fatalf("step %d: interval %d outside clamp", i, iv)
		}
	}
}
