package server

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
	"odbgc/internal/storage/disk/crashtest"
)

// captureObserver keeps every Collection event together with the disk
// counters at the moment it was emitted.
type captureObserver struct {
	heap        *gc.Heap
	collections []obs.Collection
	diskAt      []storage.IOStats
	decisions   int
}

func (c *captureObserver) ObserveRunStart(obs.RunStart)         {}
func (c *captureObserver) ObservePhase(obs.PhaseChange)         {}
func (c *captureObserver) ObserveDecision(obs.Decision)         { c.decisions++ }
func (c *captureObserver) ObserveFault(obs.Fault)               {}
func (c *captureObserver) ObserveCheckpoint(obs.CheckpointMark) {}
func (c *captureObserver) ObserveProgress(obs.Progress)         {}
func (c *captureObserver) ObserveRunEnd(obs.RunEnd)             {}
func (c *captureObserver) ObserveCollection(e obs.Collection) {
	c.collections = append(c.collections, e)
	c.diskAt = append(c.diskAt, c.heap.Disk().Stats())
}

// TestEngineCollectionRecord drives an engine's request path directly
// until SAGA has collected a few times, and checks that the serving
// telemetry carries the same per-collection record the simulator emits:
// the interval since the previous collection, the run's cumulative I/O,
// and GC spans whose estimate/target attribution matches the event.
func TestEngineCollectionRecord(t *testing.T) {
	mgr, err := storage.NewManager(storage.Config{PageSize: 1024, PagesPerPartition: 4, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	est, err := core.NewEstimator("fgs-hb", 0)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.1, InitialInterval: 8}, est)
	if err != nil {
		t.Fatal(err)
	}
	capture := &captureObserver{heap: heap}
	rec := span.NewRecorder(span.Config{Capacity: 512})
	eng, err := NewEngine(heap, EngineConfig{Policy: pol, Selection: gc.UpdatedPointer{}, Observer: capture, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	do := func(req Request) Response {
		t.Helper()
		c := &call{req: req, done: make(chan Response, 1)}
		eng.process(c)
		resp := <-c.done
		if resp.Status != StatusOK {
			t.Fatalf("%s: %+v", req.Op, resp)
		}
		return resp
	}

	// Churn: replace a hub's children over and over; every replaced child
	// is unrooted garbage for the collector to find.
	hub := do(Request{Op: OpCreate, Size: 256, Slots: 4}).OID
	for i := 0; i < 3000 && len(capture.collections) < 3; i++ {
		child := do(Request{Op: OpCreate, Size: 128}).OID
		do(Request{Op: OpSet, OID: hub, Slot: i % 4, Dst: child})
		do(Request{Op: OpUnroot, OID: child})
	}
	if len(capture.collections) < 3 {
		t.Fatalf("only %d collections after the churn", len(capture.collections))
	}
	if capture.decisions < len(capture.collections) {
		t.Errorf("%d decisions for %d collections", capture.decisions, len(capture.collections))
	}

	var gcSpans []span.Span
	for _, sp := range rec.Snapshot() {
		if sp.Kind == span.KindGC {
			gcSpans = append(gcSpans, sp)
		}
	}
	if len(gcSpans) != len(capture.collections) {
		t.Fatalf("%d GC spans for %d collection events", len(gcSpans), len(capture.collections))
	}
	for i, ev := range capture.collections {
		if ev.Interval == 0 {
			t.Errorf("collection %d: zero interval", ev.Index)
		}
		st := capture.diskAt[i]
		want := obs.IO{AppReads: st.AppReads, AppWrites: st.AppWrites, GCReads: st.GCReads, GCWrites: st.GCWrites}
		if ev.CumulativeIO != want {
			t.Errorf("collection %d: cumulative I/O %+v, disk says %+v", ev.Index, ev.CumulativeIO, want)
		}
		if ev.TargetFrac == 0 {
			t.Errorf("collection %d: SAGA event carries no target", ev.Index)
		}
		sp := gcSpans[i]
		if sp.Seq != uint64(ev.Index) || sp.Partition != ev.Partition {
			t.Errorf("span %d (partition %d) does not match collection %d (partition %d)", sp.Seq, sp.Partition, ev.Index, ev.Partition)
		}
		if sp.EstimateFrac != ev.EstimatedFrac || sp.TargetFrac != ev.TargetFrac {
			t.Errorf("collection %d: span estimate/target %v/%v, event %v/%v",
				ev.Index, sp.EstimateFrac, sp.TargetFrac, ev.EstimatedFrac, ev.TargetFrac)
		}
	}
}

// TestEngineRejectsOversizeCreate sends creates no page can hold through a
// durable engine: each must fail without staging a WAL record, so the data
// directory still reopens and rebuilds into a heap afterwards.
func TestEngineRejectsOversizeCreate(t *testing.T) {
	cfg := storage.DefaultConfig()
	fs := crashtest.NewJournalFS()
	st, _, err := disk.Open(disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := storage.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heap := gc.NewHeap(objstore.NewStore(), mgr)
	heap.SetDurable(st)
	pol, err := core.NewFixedRate(4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(heap, EngineConfig{Policy: pol, Selection: gc.UpdatedPointer{}, Durable: st})
	if err != nil {
		t.Fatal(err)
	}
	do := func(req Request) Response {
		c := &call{req: req, done: make(chan Response, 1)}
		eng.process(c)
		return <-c.done
	}

	for _, req := range []Request{
		{Op: OpCreate, Size: 9000}, // over the 8 KB page
		{Op: OpCreate, Size: 100, Slots: cfg.PageSize/8 + 1},
	} {
		if resp := do(req); resp.Status != StatusError {
			t.Errorf("create size %d slots %d: status %v, want error", req.Size, req.Slots, resp.Status)
		}
	}
	if resp := do(Request{Op: OpCreate, Size: 100, Slots: 2}); resp.Status != StatusOK {
		t.Fatalf("valid create after rejected ones: %+v", resp)
	}
	if err := heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec, _, err := disk.Open(disk.Options{FS: crashtest.FromImage(fs.Image())})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = rec.Close() }()
	mgr2, err := storage.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := gc.NewHeap(objstore.NewStore(), mgr2)
	if err := RebuildHeap(rebuilt, rec); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if n := rebuilt.Store().Len(); n != 1 {
		t.Errorf("rebuilt heap holds %d objects, want 1", n)
	}
	if err := rebuilt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
