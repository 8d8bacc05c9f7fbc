package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/storage/disk"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// requested is the share both controllers are asked to hold: SAIO the
// collector's share of I/O, SAGA the garbage share of the database.
const requested = 0.10

// setupRounds is how many times set-up runs; setup_s is their median.
const setupRounds = 5

// policies alternate in every replay workload, so that each measured pair
// of replays covers both controllers.
var policies = []string{"saio", "saga"}

// replayWorkload is a set of traces replayed through the simulator.
type replayWorkload struct {
	gen     func(seed int64) (*trace.Trace, error)
	traces  int  // traces generated per run, from seeds traces·seed+i
	durable bool // replay against a disk backend at fsync=group
}

func runOO7(o options) (*outcome, error) {
	return replayWorkload{traces: 1, gen: func(seed int64) (*trace.Trace, error) {
		return oo7.FullTrace(oo7.SmallPrime(3), seed)
	}}.run(o)
}

// runChurn replays four churn traces per run: SAGA loses control of the
// garbage share on about a quarter of churn seeds, and one trace per run
// would make every figure of the run depend on which kind of seed it drew.
func runChurn(o options) (*outcome, error) {
	return replayWorkload{traces: 4, durable: true, gen: func(seed int64) (*trace.Trace, error) {
		return workload.Churn(workload.DefaultChurn(), seed)
	}}.run(o)
}

// newPolicy builds a fresh controller. With a lane, the controller and the
// SAGA estimator it consults are timed.
func newPolicy(kind string, lane *Lane) (core.RatePolicy, error) {
	var pol core.RatePolicy
	var err error
	if kind == "saio" {
		pol, err = core.NewSAIO(core.SAIOConfig{Frac: requested})
	} else {
		var est core.Estimator
		if est, err = core.NewFGSHB(0.8); err != nil {
			return nil, err
		}
		if lane != nil {
			est = &timedEstimator{probe: probe{lane}, inner: est}
		}
		pol, err = core.NewSAGA(core.SAGAConfig{Frac: requested}, est)
	}
	if err != nil || lane == nil {
		return pol, err
	}
	return wrapPolicy(pol, probe{lane}), nil
}

// replayed is one finished replay.
type replayed struct {
	res    *sim.Result
	sim    *sim.Simulator
	digest [sha256.Size]byte
	dur    time.Duration // decode + Step + Finish
	reopen time.Duration // recovery at the reopen check (durable only)
}

// replayer replays encoded traces. Every replay builds a fresh policy,
// simulator and, when durable, in-memory store.
type replayer struct {
	w   replayWorkload
	lat *hist // per-event latency of untraced replays
}

func (r *replayer) replay(encoded []byte, kind string, lane *Lane) (*replayed, error) {
	pol, err := newPolicy(kind, lane)
	if err != nil {
		return nil, err
	}
	var sel gc.SelectionPolicy = gc.UpdatedPointer{}
	pr := probe{l: lane}
	if lane != nil {
		sel = wrapSelection(sel, pr)
	}
	cfg := sim.Config{Policy: pol, Selection: sel}
	var store *disk.Store
	var mem *memFS
	if r.w.durable {
		mem = newMemFS()
		var fs disk.FS = mem
		if lane != nil {
			fs = timedFS{probe: pr, inner: fs}
		}
		if store, _, err = disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncGroup}); err != nil {
			return nil, err
		}
		cfg.Durable = store
		if lane != nil {
			cfg.Durable = &timedBackend{probe: pr, inner: store}
		}
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(bytes.NewReader(encoded))
	if err != nil {
		return nil, err
	}
	var src sim.EventSource = &timedSource{inner: rd, h: r.lat}
	if lane != nil {
		src = &tracedSource{l: lane, inner: rd}
		lane.Start("bench.replay")
	}
	start := time.Now()
	res, err := s.RunStream(src)
	dur := time.Since(start)
	if lane != nil {
		for !lane.Open("bench.replay") {
			lane.End() // sim.finish, or whatever a failed replay left open
		}
		lane.End()
	}
	if err != nil {
		return nil, fmt.Errorf("%s replay: %w", kind, err)
	}
	out := &replayed{res: res, sim: s, digest: digest(res), dur: dur}
	if store != nil {
		if err := cfg.Durable.Close(); err != nil {
			return nil, err
		}
		if out.reopen, err = checkRecovery(mem, s); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRecovery reopens the replay's store and checks that recovery
// brings back exactly the objects the simulator's heap holds.
func checkRecovery(fs disk.FS, s *sim.Simulator) (time.Duration, error) {
	start := time.Now()
	st, info, err := disk.Open(disk.Options{FS: fs})
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reopening store: %w", err)
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	if want := s.Heap().Store().Len(); info.Objects != want {
		return 0, fmt.Errorf("recovered %d objects, heap holds %d", info.Objects, want)
	}
	return took, nil
}

// digest fingerprints everything a replay reports: every collection
// record, the final I/O and both controlled shares.
func digest(res *sim.Result) [sha256.Size]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v", *res)))
}

// timedSource records the latency of each event: the time from one Read
// to the next covers decoding the event and the simulator's Step.
type timedSource struct {
	inner sim.EventSource
	h     *hist
	prev  time.Time
}

func (s *timedSource) Read() (trace.Event, error) {
	now := time.Now()
	if !s.prev.IsZero() {
		s.h.add(int64(now.Sub(s.prev)))
	}
	s.prev = now
	return s.inner.Read()
}

func (w replayWorkload) run(o options) (*outcome, error) {
	// Set-up: generate and encode the traces, setupRounds times. Every
	// round must produce the same bytes.
	var setups []float64
	encoded := make([][]byte, w.traces)
	var events []int
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		var bufs [][]byte
		events = events[:0]
		for i := 0; i < w.traces; i++ {
			tr, err := w.gen(int64(w.traces)*o.seed + int64(i))
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := trace.WriteAll(&buf, tr); err != nil {
				return nil, err
			}
			bufs = append(bufs, buf.Bytes())
			events = append(events, len(tr.Events))
		}
		setups = append(setups, time.Since(start).Seconds())
		for i, b := range bufs {
			if encoded[i] != nil && !bytes.Equal(encoded[i], b) {
				return nil, errors.New("trace generation is not deterministic")
			}
			encoded[i] = b
		}
	}
	cycleEvents := 0
	for _, n := range events {
		cycleEvents += len(policies) * n
	}
	r := &replayer{w: w, lat: &hist{}}

	// Warm-up: one untraced replay of every trace under every policy. Its
	// results are the reference every later replay of the same trace and
	// policy must reproduce exactly.
	ref := make([]map[string]*replayed, w.traces)
	for i := range encoded {
		ref[i] = map[string]*replayed{}
		for _, k := range policies {
			rp, err := r.replay(encoded[i], k, nil)
			if err != nil {
				return nil, err
			}
			rp.sim = nil // warm-up databases do not count in live_heap_mb
			ref[i][k] = rp
		}
	}
	r.lat = &hist{}

	var tr *Tracer
	var lane *Lane
	if o.trace {
		tr = NewTracer()
		lane = tr.Lane("replay")
	}
	// A cycle replays every trace under every policy. Untraced cycles give
	// one ops_s sample each; in a traced run, cycles alternate untraced and
	// traced, ending traced.
	var (
		cycleRates         []float64
		untracedT, tracedT time.Duration
		untraced, traced   int // cycles
		reopens            []float64
		results            []*sim.Result // of the traced replays
		resident           *replayed
	)
	before := heapStats()
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	minCycles := 1
	if o.trace {
		minCycles = 2
	}
	for c := 0; c < minCycles || time.Now().Before(deadline) || (o.trace && c%2 == 1); c++ {
		var l *Lane
		if o.trace && c%2 == 1 {
			l = lane
		}
		var cycleT time.Duration
		for i := range encoded {
			for _, k := range policies {
				rp, err := r.replay(encoded[i], k, l)
				if err != nil {
					return nil, err
				}
				if rp.digest != ref[i][k].digest {
					return nil, fmt.Errorf("%s replay of trace %d (traced=%v) differs from its reference replay", k, i, l != nil)
				}
				cycleT += rp.dur
				if l != nil {
					results = append(results, rp.res)
				}
				if w.durable {
					reopens = append(reopens, float64(rp.reopen)/1e6)
				}
				if k == "saio" {
					resident = rp
				}
			}
		}
		if l != nil {
			tracedT += cycleT
			traced++
		} else {
			untracedT += cycleT
			untraced++
			cycleRates = append(cycleRates, float64(cycleEvents)/cycleT.Seconds())
		}
	}
	after := heapStats()
	// live_heap_mb counts the last SAIO replay's database. SAGA's database
	// is not used: on churn its size depends on the seed, because SAGA
	// loses control of the garbage share on some seeds (core.saga_err_pp
	// reports it).
	runtime.KeepAlive(resident.sim)

	out := &outcome{values: map[string]float64{}, attempted: int64(cycleEvents) * int64(untraced+traced)}
	v := out.values
	if !o.trace {
		v["setup_s"] = median(setups)
		v["ops_s"] = median(cycleRates)
		v["op_p50_us"] = r.lat.quantile(0.50) / 1e3
		v["alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(int64(cycleEvents)*int64(untraced))
		v["live_heap_mb"] = float64(after.HeapAlloc) / (1 << 20)
		return out, nil
	}

	n, ops := float64(len(results)), float64(cycleEvents*traced)
	v["trace.decode_ns_per_event"] = meanSelf(tr.Agg("trace.decode"))
	v["sim.step_self_ns_per_event"] = meanSelf(tr.Agg("sim.step"))
	fin := tr.Agg("sim.finish")
	v["sim.finish_ms"] = ratio(float64(fin.total), float64(fin.count)) / 1e6
	var appIO, parts, pinned, garbage float64
	for _, res := range results {
		appIO += float64(res.Final.AppIO())
		parts += float64(res.Partitions)
		pinned += float64(res.FinalPinnedGarbage)
		garbage += float64(res.FinalGarbage)
	}
	v["storage.app_io_per_op"] = appIO / ops
	v["storage.partitions"] = parts / n
	v["gc.pinned_garbage_frac"] = ratio(pinned, garbage)
	var saioErr, sagaErr float64
	for i := range ref {
		saioErr += 100 * math.Abs(ref[i]["saio"].res.GCIOFrac-requested)
		sagaErr += 100 * math.Abs(ref[i]["saga"].res.GarbageFrac-requested)
	}
	v["core.saio_err_pp"] = saioErr / float64(len(ref))
	v["core.saga_err_pp"] = sagaErr / float64(len(ref))
	v["disk.recovery_ms"] = median(reopens)
	v["bench.trace_overhead_frac"] = tracedT.Seconds()/float64(traced)/(untracedT.Seconds()/float64(untraced)) - 1
	layerValues(tr, v, n, ops)

	fmt.Fprintf(o.out, "%d traces of %v events; %d untraced and %d traced cycles of %d replays\n",
		w.traces, events, untraced, traced, w.traces*len(policies))
	for i := range ref {
		fmt.Fprintf(o.out, "trace %d: SAIO %.0f%% achieved a GC I/O share of %.2f%%; SAGA %.0f%% a garbage share of %.2f%%\n",
			i, 100*requested, 100*ref[i]["saio"].res.GCIOFrac, 100*requested, 100*ref[i]["saga"].res.GarbageFrac)
	}
	tr.Table(o.out)
	fmt.Fprintf(o.out, "tracing overhead: %.1f%% per replay\n", 100*v["bench.trace_overhead_frac"])
	if err := tr.Dump(o.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.out, "spans written to %s\n", o.spans)
	return out, nil
}
