package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// encode generates and encodes one workload trace.
func encode(t *testing.T, tr *trace.Trace, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedReplayIsIdentical checks, on both replay workloads and both
// controllers, that a replay through the timed wrappers reports exactly
// what the plain replay reports: every collection record, the final I/O
// and both controlled shares.
func TestTracedReplayIsIdentical(t *testing.T) {
	oo7Trace, err := oo7.FullTrace(oo7.SmallPrime(3), 7)
	churnTrace, err2 := workload.Churn(workload.DefaultChurn(), 7)
	for _, w := range []struct {
		name    string
		r       *replayer
		encoded []byte
	}{
		{"oo7-replay", &replayer{lat: &hist{}}, encode(t, oo7Trace, err)},
		{"churn-durable", &replayer{w: replayWorkload{durable: true}, lat: &hist{}}, encode(t, churnTrace, err2)},
	} {
		for _, k := range policies {
			plain, err := w.r.replay(w.encoded, k, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, k, err)
			}
			tr := NewTracer()
			traced, err := w.r.replay(w.encoded, k, tr.Lane("replay"))
			if err != nil {
				t.Fatalf("%s %s traced: %v", w.name, k, err)
			}
			if plain.digest != traced.digest {
				t.Errorf("%s %s: traced result differs:\nplain  %+v\ntraced %+v", w.name, k, plain.res.Collections[:1], traced.res.Collections[:1])
			}
			if tr.Agg("gc.collect").count == 0 || tr.Agg("sim.step").count == 0 {
				t.Errorf("%s %s: traced replay recorded no collection or step spans", w.name, k)
			}
			if w.r.w.durable && tr.Agg("disk.commit").count == 0 {
				t.Errorf("%s %s: traced durable replay recorded no commits", w.name, k)
			}
		}
	}
}

// TestWrappersForwardOptionalInterfaces checks that a wrapper exposes an
// optional interface the simulator or engine type-asserts on exactly when
// the wrapped value has it, and that replays through wrappers of an idle
// collector and a yield-observing selection stay identical.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	lane := NewTracer().Lane("test")
	saio, err := core.NewSAIO(core.SAIOConfig{Frac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	saga, err := newPolicy("saga", nil)
	if err != nil {
		t.Fatal(err)
	}
	opp, err := core.NewOpportunistic(saga, core.OracleEstimator{}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.RatePolicy{saio, saga, opp} {
		w := wrapPolicy(p, probe{lane})
		_, innerDiag := p.(sagaDiag)
		_, innerIdle := p.(core.IdleCollector)
		if _, ok := w.(sagaDiag); ok != innerDiag {
			t.Errorf("%s: wrapper has SAGA diagnostics %v, policy %v", p.Name(), ok, innerDiag)
		}
		if _, ok := w.(core.IdleCollector); ok != innerIdle {
			t.Errorf("%s: wrapper is an idle collector %v, policy %v", p.Name(), ok, innerIdle)
		}
	}
	for _, s := range []gc.SelectionPolicy{gc.UpdatedPointer{}, &gc.Hybrid{}} {
		_, inner := s.(gc.YieldObserver)
		if _, ok := wrapSelection(s, probe{lane}).(gc.YieldObserver); ok != inner {
			t.Errorf("%s: wrapper observes yield %v, selection %v", s.Name(), ok, inner)
		}
	}

	params := oo7.SmallPrime(3)
	params.IdleBetweenPhases = 200
	tr, err := oo7.FullTrace(params, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(lane *Lane) *sim.Result {
		t.Helper()
		inner, err := newPolicy("saga", nil)
		if err != nil {
			t.Fatal(err)
		}
		var pol core.RatePolicy
		if pol, err = core.NewOpportunistic(inner, core.OracleEstimator{}, 0.02); err != nil {
			t.Fatal(err)
		}
		var sel gc.SelectionPolicy = &gc.Hybrid{}
		if lane != nil {
			pol, sel = wrapPolicy(pol, probe{lane}), wrapSelection(sel, probe{lane})
		}
		s, err := sim.New(sim.Config{Policy: pol, Selection: sel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tracer := NewTracer()
	if plain, traced := run(nil), run(tracer.Lane("replay")); digest(plain) != digest(traced) {
		t.Error("traced opportunistic/hybrid replay differs from the plain one")
	}
	if tracer.Agg("core.should_collect_idle").count == 0 || tracer.Agg("gc.observe_yield").count == 0 {
		t.Error("idle and yield calls did not reach the wrappers")
	}
}

// TestBenchmarkJSONListsMetrics checks that BENCHMARK.json declares
// exactly the metrics the program reports, with the same units.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}

// TestHistQuantile checks quantiles against a uniform distribution: exact
// below 128, and within a bucket's width above.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.001, 0.5, 0.99} {
		want := q * 100_000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.3f = %.1f, want about %.1f", q, got, want)
		}
	}
	if got := (&hist{}).quantile(0.5); got != 0 {
		t.Errorf("empty histogram median = %v, want 0", got)
	}
}
